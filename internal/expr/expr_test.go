package expr

import (
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// mkBatch builds a dense two-column batch (i64, f64).
func mkBatch(is []int64, fs []float64) *vector.Batch {
	b := vector.NewBatchOfKinds([]vtypes.Kind{vtypes.KindI64, vtypes.KindF64}, len(is))
	copy(b.Vecs[0].I64, is)
	copy(b.Vecs[1].F64, fs)
	b.SetDense(len(is))
	return b
}

func TestColAndConst(t *testing.T) {
	b := mkBatch([]int64{1, 2}, []float64{0.5, 1.5})
	c := NewCol(0, vtypes.KindI64)
	v, err := c.Eval(b)
	if err != nil || v.I64[1] != 2 {
		t.Fatal("col eval wrong")
	}
	if _, err := NewCol(9, vtypes.KindI64).Eval(b); err == nil {
		t.Fatal("out-of-range col must error")
	}
	k := NewConst(vtypes.F64Value(3.5))
	v, err = k.Eval(b)
	if err != nil || v.F64[0] != 3.5 || v.F64[1] != 3.5 {
		t.Fatal("const eval wrong")
	}
}

func TestArithWideningAndDates(t *testing.T) {
	b := mkBatch([]int64{10, 20}, []float64{0.5, 1.5})
	// int + float widens to float.
	a, err := NewArith(algebra.OpAdd, NewCol(0, vtypes.KindI64), NewCol(1, vtypes.KindF64))
	if err != nil || a.Kind() != vtypes.KindF64 {
		t.Fatal(err)
	}
	v, err := a.Eval(b)
	if err != nil || v.F64[0] != 10.5 || v.F64[1] != 21.5 {
		t.Fatalf("widened add: %v", v.F64[:2])
	}
	// date - int stays a date.
	db := vector.NewBatchOfKinds([]vtypes.Kind{vtypes.KindDate}, 1)
	db.Vecs[0].I64[0] = 100
	db.SetDense(1)
	d, err := NewArith(algebra.OpSub, NewCol(0, vtypes.KindDate), NewConst(vtypes.I64Value(10)))
	if err != nil || d.Kind() != vtypes.KindDate {
		t.Fatal(err)
	}
	dv, err := d.Eval(db)
	if err != nil || dv.I64[0] != 90 {
		t.Fatal("date arithmetic wrong")
	}
	// strings reject arithmetic.
	if _, err := NewArith(algebra.OpAdd, NewConst(vtypes.StrValue("x")), NewConst(vtypes.I64Value(1))); err == nil {
		t.Fatal("string arithmetic must fail")
	}
}

func TestEvalRespectsSelection(t *testing.T) {
	b := mkBatch([]int64{1, 2, 3, 4}, []float64{1, 2, 3, 4})
	sel := b.MutableSel(4)
	sel[0], sel[1] = 1, 3
	b.SetSel(sel, 2)
	a, err := NewArith(algebra.OpMul, NewCol(0, vtypes.KindI64), NewConst(vtypes.I64Value(10)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	// Only live positions are written.
	if v.I64[1] != 20 || v.I64[3] != 40 {
		t.Fatalf("live positions wrong: %v", v.I64[:4])
	}
	if v.I64[0] != 0 || v.I64[2] != 0 {
		t.Fatalf("dead positions touched: %v", v.I64[:4])
	}
}

func TestPredChain(t *testing.T) {
	b := mkBatch([]int64{1, 2, 3, 4, 5, 6}, []float64{1, 2, 3, 4, 5, 6})
	p1, err := NewCmpConst(NewCol(0, vtypes.KindI64), algebra.CmpGt, vtypes.I64Value(2))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewCmpConst(NewCol(0, vtypes.KindI64), algebra.CmpLt, vtypes.I64Value(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewAnd(p1, p2).Filter(b); err != nil {
		t.Fatal(err)
	}
	if b.N != 3 || b.LiveIndex(0) != 2 || b.LiveIndex(2) != 4 {
		t.Fatalf("and-chain: N=%d", b.N)
	}
}

func TestOrPredUnions(t *testing.T) {
	b := mkBatch([]int64{1, 2, 3, 4, 5, 6}, []float64{1, 2, 3, 4, 5, 6})
	p1, _ := NewCmpConst(NewCol(0, vtypes.KindI64), algebra.CmpLe, vtypes.I64Value(2))
	p2, _ := NewCmpConst(NewCol(0, vtypes.KindI64), algebra.CmpGe, vtypes.I64Value(5))
	if err := NewOr(p1, p2).Filter(b); err != nil {
		t.Fatal(err)
	}
	if b.N != 4 {
		t.Fatalf("or: N=%d", b.N)
	}
	// Ascending order preserved.
	for i := 1; i < b.N; i++ {
		if b.LiveIndex(i) <= b.LiveIndex(i-1) {
			t.Fatal("or output must stay ascending")
		}
	}
}

func TestNotPredComplements(t *testing.T) {
	b := mkBatch([]int64{1, 2, 3, 4}, []float64{1, 2, 3, 4})
	p, _ := NewCmpConst(NewCol(0, vtypes.KindI64), algebra.CmpLe, vtypes.I64Value(2))
	if err := isFalse(t, p).Filter(b); err != nil {
		t.Fatal(err)
	}
	if b.N != 2 || b.LiveIndex(0) != 2 || b.LiveIndex(1) != 3 {
		t.Fatalf("not: %d", b.N)
	}
}

func TestTypeErrors(t *testing.T) {
	if _, err := NewCmpConst(NewCol(0, vtypes.KindI64), algebra.CmpLt, vtypes.StrValue("x")); err == nil {
		t.Fatal("int vs string compare must fail")
	}
	if _, err := NewLike(NewCol(0, vtypes.KindI64), "a%", false); err == nil {
		t.Fatal("LIKE on int must fail")
	}
	if _, err := NewBetween(NewCol(0, vtypes.KindI64), vtypes.StrValue("a"), vtypes.StrValue("b")); err == nil {
		t.Fatal("mismatched BETWEEN must fail")
	}
	if _, err := NewBoolPred(NewCol(0, vtypes.KindI64)); err == nil {
		t.Fatal("non-bool predicate must fail")
	}
	if _, err := NewCase(NewCol(0, vtypes.KindI64), NewCol(0, vtypes.KindI64), NewCol(0, vtypes.KindI64)); err == nil {
		t.Fatal("non-bool CASE condition must fail")
	}
}

func TestCaseBlends(t *testing.T) {
	b := mkBatch([]int64{1, 2, 3, 4}, []float64{10, 20, 30, 40})
	cond, err := NewCmpConst(NewCol(0, vtypes.KindI64), algebra.CmpGt, vtypes.I64Value(2))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCase(NewPredMap(cond), NewCol(1, vtypes.KindF64), NewConst(vtypes.F64Value(0)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := cs.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 30, 40}
	for i, w := range want {
		if v.F64[i] != w {
			t.Fatalf("case blend: %v", v.F64[:4])
		}
	}
}

func TestYearOf(t *testing.T) {
	b := vector.NewBatchOfKinds([]vtypes.Kind{vtypes.KindDate}, 2)
	b.Vecs[0].I64[0] = vtypes.MustParseDate("1995-06-17")
	b.Vecs[0].I64[1] = vtypes.MustParseDate("1998-12-01")
	b.SetDense(2)
	y := NewYearOf(NewCol(0, vtypes.KindDate))
	v, err := y.Eval(b)
	if err != nil || v.I64[0] != 1995 || v.I64[1] != 1998 {
		t.Fatal("year extraction wrong")
	}
}

func TestCastRelabelsAndConverts(t *testing.T) {
	b := mkBatch([]int64{7}, []float64{7.9})
	// Same class: relabel only.
	c := NewCast(NewCol(0, vtypes.KindI64), vtypes.KindDate)
	v, err := c.Eval(b)
	if err != nil || v.Kind != vtypes.KindDate || v.I64[0] != 7 {
		t.Fatal("relabel cast wrong")
	}
	// Cross class converts.
	c2 := NewCast(NewCol(1, vtypes.KindF64), vtypes.KindI64)
	v, err = c2.Eval(b)
	if err != nil || v.I64[0] != 7 {
		t.Fatal("f64→i64 cast wrong")
	}
}

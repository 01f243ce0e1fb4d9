package tupleengine

import (
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/vtypes"
)

func row(vs ...vtypes.Value) vtypes.Row { return vtypes.Row(vs) }

func c(i int, k vtypes.Kind) algebra.Scalar { return &algebra.ColRef{Idx: i, K: k} }
func li(v int64) algebra.Scalar             { return &algebra.Lit{Val: vtypes.I64Value(v)} }

func evalOK(t *testing.T, s algebra.Scalar, r vtypes.Row) vtypes.Value {
	t.Helper()
	v, err := EvalRow(s, r)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEvalRowArithmetic(t *testing.T) {
	r := row(vtypes.I64Value(10), vtypes.F64Value(2.5))
	add, _ := algebra.NewArith(algebra.OpAdd, c(0, vtypes.KindI64), li(5))
	if v := evalOK(t, add, r); v.I64 != 15 {
		t.Fatalf("add: %v", v)
	}
	mul, _ := algebra.NewArith(algebra.OpMul, &algebra.Cast{In: c(0, vtypes.KindI64), To: vtypes.KindF64}, c(1, vtypes.KindF64))
	if v := evalOK(t, mul, r); v.F64 != 25 {
		t.Fatalf("cast mul: %v", v)
	}
	div, _ := algebra.NewArith(algebra.OpDiv, c(0, vtypes.KindI64), li(0))
	if v := evalOK(t, div, r); v.I64 != 0 {
		t.Fatal("div by zero must be total")
	}
	// NULL propagates through arithmetic.
	rn := row(vtypes.NullValue(vtypes.KindI64), vtypes.F64Value(1))
	if v := evalOK(t, add, rn); !v.Null {
		t.Fatal("NULL must propagate")
	}
}

func TestEvalRowPredicates(t *testing.T) {
	r := row(vtypes.I64Value(7), vtypes.StrValue("promo box"))
	cases := []struct {
		s    algebra.Scalar
		want bool
	}{
		{&algebra.Cmp{Op: algebra.CmpGt, L: c(0, vtypes.KindI64), R: li(5)}, true},
		{&algebra.Cmp{Op: algebra.CmpEq, L: c(0, vtypes.KindI64), R: li(5)}, false},
		{&algebra.And{Preds: []algebra.Scalar{
			&algebra.Cmp{Op: algebra.CmpGe, L: c(0, vtypes.KindI64), R: li(5)},
			&algebra.Cmp{Op: algebra.CmpLe, L: c(0, vtypes.KindI64), R: li(9)},
		}}, true},
		{&algebra.In{In: c(0, vtypes.KindI64), List: []vtypes.Value{vtypes.I64Value(1), vtypes.I64Value(7)}}, true},
		{&algebra.Like{In: c(1, vtypes.KindStr), Pattern: "promo%"}, true},
		{&algebra.Like{In: c(1, vtypes.KindStr), Pattern: "promo%", Negate: true}, false},
		// NOT of a boolean value, as algebra.Negate writes it: `b = FALSE`.
		{&algebra.Cmp{Op: algebra.CmpEq, L: &algebra.Cmp{Op: algebra.CmpGt, L: c(0, vtypes.KindI64), R: li(5)}, R: &algebra.Lit{Val: vtypes.BoolValue(false)}}, false},
		{&algebra.And{Preds: []algebra.Scalar{
			&algebra.Cmp{Op: algebra.CmpGt, L: c(0, vtypes.KindI64), R: li(5)},
			&algebra.Cmp{Op: algebra.CmpLt, L: c(0, vtypes.KindI64), R: li(9)},
		}}, true},
		{&algebra.Or{Preds: []algebra.Scalar{
			&algebra.Cmp{Op: algebra.CmpGt, L: c(0, vtypes.KindI64), R: li(99)},
			&algebra.Cmp{Op: algebra.CmpLt, L: c(0, vtypes.KindI64), R: li(9)},
		}}, true},
		{&algebra.IsNull{In: c(0, vtypes.KindI64)}, false},
		{&algebra.IsNull{In: c(0, vtypes.KindI64), Negate: true}, true},
	}
	for i, tc := range cases {
		if v := evalOK(t, tc.s, r); v.B != tc.want {
			t.Errorf("case %d (%s): got %v", i, tc.s, v)
		}
	}
	// SQL three-valued logic: NULL comparisons are not true.
	rn := row(vtypes.NullValue(vtypes.KindI64), vtypes.StrValue(""))
	cmp := &algebra.Cmp{Op: algebra.CmpEq, L: c(0, vtypes.KindI64), R: li(0)}
	if v := evalOK(t, cmp, rn); v.B {
		t.Fatal("NULL = 0 must not be true")
	}
}

func TestEvalRowCaseYearCast(t *testing.T) {
	r := row(vtypes.DateValue(vtypes.MustParseDate("1997-05-20")), vtypes.F64Value(3.5))
	y := &algebra.YearOf{In: c(0, vtypes.KindDate)}
	if v := evalOK(t, y, r); v.I64 != 1997 {
		t.Fatalf("year: %v", v)
	}
	cs, _ := algebra.NewCase(
		&algebra.Cmp{Op: algebra.CmpGt, L: c(1, vtypes.KindF64), R: &algebra.Lit{Val: vtypes.F64Value(3)}},
		c(1, vtypes.KindF64),
		&algebra.Lit{Val: vtypes.F64Value(0)})
	if v := evalOK(t, cs, r); v.F64 != 3.5 {
		t.Fatalf("case: %v", v)
	}
	cast := &algebra.Cast{In: c(1, vtypes.KindF64), To: vtypes.KindI64}
	if v := evalOK(t, cast, r); v.I64 != 3 {
		t.Fatalf("cast: %v", v)
	}
}

func TestRemoteLeafRejected(t *testing.T) {
	leaf := &algebra.RemoteNode{Out: vtypes.NewSchema(vtypes.Column{Name: "v", Kind: vtypes.KindI64})}
	if _, err := Build(&algebra.LimitNode{Input: leaf, N: 1}, nil); err == nil {
		t.Fatal("tupleengine must reject a remote leaf: only the coordinator's compiler can bind one")
	}
}

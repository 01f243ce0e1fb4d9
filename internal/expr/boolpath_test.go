package expr

import (
	"fmt"
	"slices"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// kgBatch builds the fixture of the OR-under-a-filter bug: k = 0..n-1,
// g = k % 5, a string column s = "s<g>", dense.
func kgBatch(n int) *vector.Batch {
	b := vector.NewBatchOfKinds([]vtypes.Kind{vtypes.KindI64, vtypes.KindI64, vtypes.KindStr}, n)
	for i := 0; i < n; i++ {
		b.Vecs[0].I64[i] = int64(i)
		b.Vecs[1].I64[i] = int64(i % 5)
		b.Vecs[2].Str[i] = fmt.Sprintf("s%d", i%5)
	}
	b.SetDense(n)
	return b
}

func mustCmp(t testing.TB, col int, op algebra.CmpOp, v int64) Pred {
	t.Helper()
	p, err := NewCmpConst(NewCol(col, vtypes.KindI64), op, vtypes.I64Value(v))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// isFalse is `p = FALSE`, the form a negated boolean value takes once
// the planner has put NOT in negation normal form (algebra.Negate).
func isFalse(t testing.TB, p Pred) Pred {
	t.Helper()
	q, err := NewCmpConst(NewPredMap(p), algebra.CmpEq, vtypes.BoolValue(false))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func live(b *vector.Batch) []int {
	out := make([]int, b.N)
	for i := range out {
		out[i] = b.LiveIndex(i)
	}
	return out
}

// g3or1 is (g = 3 OR g = 1), built fresh: predicates own scratch state.
func g3or1(t testing.TB) Pred {
	return NewOr(mustCmp(t, 1, algebra.CmpEq, 3), mustCmp(t, 1, algebra.CmpEq, 1))
}

// TestOrNotBehindAnEarlierFilter: OR and NOT evaluated when the batch's
// live set is already a selection held in the batch's own buffer — the
// state every conjunct after the first, and every predicate above a
// pushed scan filter, runs in. The parent's orPred/notPred re-installed
// a saved Sel their first sub-predicate had already overwritten.
func TestOrNotBehindAnEarlierFilter(t *testing.T) {
	cases := []struct {
		name string
		pred func() Pred
		want []int
	}{
		{"k >= 4 AND (g = 3 OR g = 1)",
			func() Pred { return NewAnd(mustCmp(t, 0, algebra.CmpGe, 4), g3or1(t)) },
			[]int{6, 8, 11, 13, 16, 18}},
		{"k >= 4 AND NOT (g = 3 OR g = 1)",
			func() Pred { return NewAnd(mustCmp(t, 0, algebra.CmpGe, 4), isFalse(t, g3or1(t))) },
			[]int{4, 5, 7, 9, 10, 12, 14, 15, 17, 19}},
		{"k >= 4 AND (NOT g = 3 OR k = 8)",
			func() Pred {
				return NewAnd(mustCmp(t, 0, algebra.CmpGe, 4), NewOr(isFalse(t, mustCmp(t, 1, algebra.CmpEq, 3)), mustCmp(t, 0, algebra.CmpEq, 8)))
			},
			[]int{4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 17, 19}},
		{"(g = 3 OR g = 1) AND (g = 1 OR k < 5)",
			func() Pred {
				return NewAnd(g3or1(t), NewOr(mustCmp(t, 1, algebra.CmpEq, 1), mustCmp(t, 0, algebra.CmpLt, 5)))
			},
			[]int{1, 3, 6, 11, 16}},
		{"dense g = 3 OR g = 1 OR g = 3 (duplicates marked once)",
			func() Pred { return NewOr(g3or1(t), mustCmp(t, 1, algebra.CmpEq, 3)) },
			[]int{1, 3, 6, 8, 11, 13, 16, 18}},
		{"NOT over nothing, OR over nothing",
			func() Pred { return NewAnd(isFalse(t, NewOr()), mustCmp(t, 0, algebra.CmpLt, 2)) },
			[]int{0, 1}},
	}
	for _, c := range cases {
		p := c.pred()
		// Two batches through one predicate: the scratch marks of the
		// first must not leak into the second.
		for round := 0; round < 2; round++ {
			b := kgBatch(20)
			if err := p.Filter(b); err != nil {
				t.Fatal(err)
			}
			if got := live(b); !slices.Equal(got, c.want) {
				t.Fatalf("%s (round %d): rows %v, want %v", c.name, round, got, c.want)
			}
		}
	}
}

// spy checks that the batch it is handed carries exactly the live set
// want, then keeps the rows whose k is in keep.
type spy struct {
	t    *testing.T
	want []int
	keep Pred
}

func (s *spy) Filter(b *vector.Batch) error {
	if got := live(b); !slices.Equal(got, s.want) {
		s.t.Errorf("sub-predicate saw live set %v, want the incoming %v", got, s.want)
	}
	return s.keep.Filter(b)
}

// TestMarkerReadsButNeverWritesTheCallersSel: with b.Sel an alias of the
// batch's own selection buffer, every sub-predicate of OR / NOT / a
// predicate-as-value sees the incoming live set — the first one's
// in-place kernel has not eaten it — and NewPredMap hands the batch back
// with the same Sel, element for element, in the same array.
func TestMarkerReadsButNeverWritesTheCallersSel(t *testing.T) {
	incoming := []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	setup := func() *vector.Batch {
		b := kgBatch(20)
		if err := mustCmp(t, 0, algebra.CmpGe, 4).Filter(b); err != nil {
			t.Fatal(err)
		}
		if &b.Sel[0] != &b.MutableSel(b.Capacity())[0] {
			t.Fatal("fixture: Sel is not the batch's own buffer")
		}
		return b
	}
	sp := func(col int, v int64) Pred {
		return &spy{t: t, want: incoming, keep: mustCmp(t, col, algebra.CmpEq, v)}
	}

	b := setup()
	if err := NewOr(sp(1, 3), sp(1, 1), sp(0, 4)).Filter(b); err != nil {
		t.Fatal(err)
	}
	if got, want := live(b), []int{4, 6, 8, 11, 13, 16, 18}; !slices.Equal(got, want) {
		t.Fatalf("or: %v, want %v", got, want)
	}

	b = setup()
	if err := isFalse(t, sp(1, 3)).Filter(b); err != nil {
		t.Fatal(err)
	}
	if got, want := live(b), []int{4, 5, 6, 7, 9, 10, 11, 12, 14, 15, 16, 17, 19}; !slices.Equal(got, want) {
		t.Fatalf("not: %v, want %v", got, want)
	}

	b = setup()
	sel0 := &b.Sel[0]
	m := NewPredMap(NewOr(sp(1, 3), sp(1, 1)))
	v, err := m.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := live(b); !slices.Equal(got, incoming) || &b.Sel[0] != sel0 {
		t.Fatalf("predMap narrowed or moved the caller's live set: %v", got)
	}
	for _, i := range incoming {
		if want := i%5 == 3 || i%5 == 1; v.B[i] != want {
			t.Fatalf("predMap[%d] = %v, want %v", i, v.B[i], want)
		}
	}
}

// TestPredMapClearsStaleMarks: the value vector is reused across batches,
// so a row true in one batch and false in the next must read false.
func TestPredMapClearsStaleMarks(t *testing.T) {
	m := NewPredMap(mustCmp(t, 1, algebra.CmpEq, 3))
	b := kgBatch(10)
	if _, err := m.Eval(b); err != nil {
		t.Fatal(err)
	}
	for i := range b.Vecs[1].I64[:10] {
		b.Vecs[1].I64[i] = 0
	}
	sel := b.MutableSel(10)
	copy(sel, []int32{1, 3, 8})
	b.SetSel(sel, 3)
	v, err := m.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 3, 8} {
		if v.B[i] {
			t.Fatalf("row %d still marked from the previous batch", i)
		}
	}
}

// TestNullLiteralIsNeverTrue: the one rule about NULL literals, at the
// three leaves that can hold one.
func TestNullLiteralIsNeverTrue(t *testing.T) {
	null := vtypes.NullValue(vtypes.KindI64)
	k := NewCol(0, vtypes.KindI64)
	build := map[string]func() (Pred, error){
		"k = NULL":             func() (Pred, error) { return NewCmpConst(k, algebra.CmpEq, null) },
		"k <> NULL":            func() (Pred, error) { return NewCmpConst(k, algebra.CmpNe, null) },
		"k BETWEEN NULL AND 5": func() (Pred, error) { return NewBetween(k, null, vtypes.I64Value(5)) },
		"k BETWEEN 0 AND NULL": func() (Pred, error) { return NewBetween(k, vtypes.I64Value(0), null) },
		"k IN (NULL)":          func() (Pred, error) { return NewInSet(k, []vtypes.Value{null}) },
		"s IN (NULL) (strings)": func() (Pred, error) {
			return NewInSet(NewCol(2, vtypes.KindStr), []vtypes.Value{vtypes.NullValue(vtypes.KindStr)})
		},
	}
	for name, mk := range build {
		p, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b := kgBatch(8)
		if err := p.Filter(b); err != nil || b.N != 0 {
			t.Fatalf("%s kept %v (%v), want no row", name, live(b), err)
		}
	}
	// A NULL member beside real ones is dropped, not compared as its zero
	// slot: k = 0 must not match IN (NULL, 3).
	p, err := NewInSet(k, []vtypes.Value{null, vtypes.I64Value(3)})
	if err != nil {
		t.Fatal(err)
	}
	b := kgBatch(8)
	if err := p.Filter(b); err != nil || !slices.Equal(live(b), []int{3}) {
		t.Fatalf("k IN (NULL, 3) kept %v (%v)", live(b), err)
	}
}

// TestCmpConstWidensIntToFloat: an integer expression against a float
// literal compares as DOUBLE, like two columns of mixed class do.
func TestCmpConstWidensIntToFloat(t *testing.T) {
	k := NewCol(0, vtypes.KindI64)
	for _, c := range []struct {
		op   algebra.CmpOp
		lit  float64
		want []int
	}{
		{algebra.CmpEq, 1.0, []int{1}},
		{algebra.CmpEq, 1.5, nil},
		{algebra.CmpLt, 1.5, []int{0, 1}},
		{algebra.CmpGe, 2.5, []int{3, 4}},
	} {
		p, err := NewCmpConst(k, c.op, vtypes.F64Value(c.lit))
		if err != nil {
			t.Fatal(err)
		}
		b := kgBatch(5)
		if err := p.Filter(b); err != nil || !slices.Equal(live(b), c.want) {
			t.Fatalf("k %v %v kept %v (%v), want %v", c.op, c.lit, live(b), err, c.want)
		}
	}
}

func TestIsNullOnColumn(t *testing.T) {
	b := kgBatch(6)
	b.Vecs[1].Nulls = []bool{false, true, false, true, true, false}
	for _, c := range []struct {
		col    int
		negate bool
		want   []int
	}{
		{1, false, []int{1, 3, 4}},
		{1, true, []int{0, 2, 5}},
		{0, false, nil}, // no indicator: nothing is NULL
		{0, true, []int{0, 1, 2, 3, 4, 5}},
	} {
		b.SetDense(6)
		if err := NewIsNull(NewCol(c.col, vtypes.KindI64), c.negate).Filter(b); err != nil || !slices.Equal(live(b), c.want) {
			t.Fatalf("col %d negate=%v kept %v (%v), want %v", c.col, c.negate, live(b), err, c.want)
		}
	}
}

// boolShapes are the three users of the marker, over (g = 3 OR g = 1).
func boolShapes(t testing.TB) map[string]func(*vector.Batch) error {
	cs, err := NewCase(NewPredMap(g3or1(t)), NewCol(0, vtypes.KindI64), NewConst(vtypes.I64Value(0)))
	if err != nil {
		t.Fatal(err)
	}
	or, not := g3or1(t), isFalse(t, g3or1(t))
	return map[string]func(*vector.Batch) error{
		"PredOr":   or.Filter,
		"PredNot":  not.Filter,
		"CaseCond": func(b *vector.Batch) error { _, err := cs.Eval(b); return err },
	}
}

// halve leaves every second row of a dense batch live, in the batch's
// own selection buffer.
func halve(b *vector.Batch) {
	n := b.Capacity()
	sel := b.MutableSel(n)
	for i := 0; i < n/2; i++ {
		sel[i] = int32(2 * i)
	}
	b.SetSel(sel, n/2)
}

// TestWarmBooleanPathAllocatesNothing: after its first batch an OR, a
// NOT and a predicate-as-value allocate nothing per batch.
func TestWarmBooleanPathAllocatesNothing(t *testing.T) {
	for name, run := range boolShapes(t) {
		for _, selected := range []bool{false, true} {
			b := kgBatch(1024)
			step := func() {
				b.SetDense(1024)
				if selected {
					halve(b)
				}
				if err := run(b); err != nil {
					t.Fatal(err)
				}
			}
			step()
			if got := testing.AllocsPerRun(20, step); got != 0 {
				t.Errorf("%s (selected=%v): %v allocs per warm batch, want 0", name, selected, got)
			}
		}
	}
}

func benchShape(b *testing.B, name string) {
	for _, selected := range []bool{false, true} {
		b.Run(map[bool]string{false: "dense", true: "half"}[selected], func(b *testing.B) {
			run := boolShapes(b)[name]
			batch := kgBatch(1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch.SetDense(1024)
				if selected {
					halve(batch)
				}
				if err := run(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPredOr(b *testing.B)   { benchShape(b, "PredOr") }
func BenchmarkPredNot(b *testing.B)  { benchShape(b, "PredNot") }
func BenchmarkCaseCond(b *testing.B) { benchShape(b, "CaseCond") }

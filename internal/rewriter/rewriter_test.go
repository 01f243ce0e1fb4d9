package rewriter

import (
	"reflect"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/storage"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

func colI(i int) algebra.Scalar { return &algebra.ColRef{Idx: i, K: vtypes.KindI64} }
func litI(v int64) algebra.Scalar {
	return &algebra.Lit{Val: vtypes.I64Value(v)}
}

// Simplify runs the simplification rules over one expression, as
// SimplifyPlan does over each of a plan's.
func Simplify(s algebra.Scalar) algebra.Scalar {
	out, err := algebra.MapScalar(s, func(n algebra.Scalar) (algebra.Scalar, error) { return simplifyNode(n), nil })
	if err != nil {
		panic(err)
	}
	return out
}

func TestSimplifyFlattensAndFolds(t *testing.T) {
	nested := &algebra.And{Preds: []algebra.Scalar{
		&algebra.And{Preds: []algebra.Scalar{
			&algebra.Cmp{Op: algebra.CmpLt, L: colI(0), R: litI(5)},
			&algebra.Lit{Val: vtypes.BoolValue(true)},
		}},
		&algebra.Cmp{Op: algebra.CmpGt, L: colI(1), R: litI(2)},
	}}
	out := Simplify(nested)
	and, ok := out.(*algebra.And)
	if !ok || len(and.Preds) != 2 {
		t.Fatalf("flatten failed: %v", out)
	}
	// Single conjunct unwraps.
	single := Simplify(&algebra.And{Preds: []algebra.Scalar{colCmp()}})
	if _, ok := single.(*algebra.Cmp); !ok {
		t.Fatalf("single AND must unwrap: %T", single)
	}
	// Literal-literal comparison folds.
	folded := Simplify(&algebra.Cmp{Op: algebra.CmpLt, L: litI(1), R: litI(2)})
	if l, ok := folded.(*algebra.Lit); !ok || !l.Val.B {
		t.Fatalf("1<2 must fold to true: %v", folded)
	}
	// A constant on the left moves to the right, its operator flipped; a
	// comparison of two constants or of two columns stays as written.
	for _, c := range []struct{ in, want algebra.Scalar }{
		{&algebra.Cmp{Op: algebra.CmpLe, L: litI(1), R: colI(0)}, &algebra.Cmp{Op: algebra.CmpGe, L: colI(0), R: litI(1)}},
		{&algebra.Cmp{Op: algebra.CmpLt, L: &algebra.Param{Idx: 0, K: vtypes.KindI64}, R: colI(0)},
			&algebra.Cmp{Op: algebra.CmpGt, L: colI(0), R: &algebra.Param{Idx: 0, K: vtypes.KindI64}}},
		{&algebra.Cmp{Op: algebra.CmpLt, L: litI(1), R: &algebra.Param{Idx: 0, K: vtypes.KindI64}},
			&algebra.Cmp{Op: algebra.CmpLt, L: litI(1), R: &algebra.Param{Idx: 0, K: vtypes.KindI64}}},
		{&algebra.Cmp{Op: algebra.CmpLt, L: colI(1), R: colI(0)}, &algebra.Cmp{Op: algebra.CmpLt, L: colI(1), R: colI(0)}},
	} {
		if got := Simplify(c.in); !algebra.Equal(got, c.want) {
			t.Errorf("%v simplifies to %v, want %v", c.in, got, c.want)
		}
	}
}

// TestSimplifyPlanReachesEveryScalar: a boolean simplifies the same way
// wherever the plan holds it — under a CASE inside arithmetic in a
// projection, an aggregate argument, a group-by, a sort key, a join key —
// not only as a Select predicate, so `WHERE p` and `CASE WHEN p` cannot
// drift apart in the rewriter.
func TestSimplifyPlanReachesEveryScalar(t *testing.T) {
	// CASE WHEN 1 = #0 THEN 1 ELSE 0 END + 1
	nested := func() algebra.Scalar {
		cs, err := algebra.NewCase(litLeftCmp(), litI(1), litI(0))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := algebra.NewArith(algebra.OpAdd, cs, litI(1))
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	scan := aggPlan(algebra.AggSum).Input
	plan := &algebra.SortNode{
		Keys: []algebra.SortKey{{Expr: nested()}},
		Input: &algebra.JoinNode{
			LeftKeys: []algebra.Scalar{nested()}, RightKeys: []algebra.Scalar{nested()},
			Right: scan,
			Left: &algebra.AggNode{
				GroupBy: []algebra.Scalar{nested()},
				Aggs:    []algebra.AggExpr{{Fn: algebra.AggSum, Arg: nested()}, {Fn: algebra.AggCountStar}},
				Names:   []string{"g", "s", "n"},
				Input: &algebra.ProjectNode{Exprs: []algebra.Scalar{nested()}, Names: []string{"x"},
					Input: &algebra.SelectNode{Pred: &algebra.Cmp{Op: algebra.CmpEq, L: nested(), R: litI(2)}, Input: scan}},
			},
		},
	}
	// Every scalar the plan holds, by node.
	scalars := func(n algebra.Node) []algebra.Scalar {
		sort := n.(*algebra.SortNode)
		join := sort.Input.(*algebra.JoinNode)
		agg := join.Left.(*algebra.AggNode)
		proj := agg.Input.(*algebra.ProjectNode)
		sel := proj.Input.(*algebra.SelectNode)
		return []algebra.Scalar{sort.Keys[0].Expr, join.LeftKeys[0], join.RightKeys[0],
			agg.GroupBy[0], agg.Aggs[0].Arg, proj.Exprs[0], sel.Pred}
	}
	for i, s := range scalars(plan) {
		if !strings.Contains(s.String(), "case when (1 = #0)") {
			t.Fatalf("fixture: scalar %d is %s", i, s)
		}
	}
	out := SimplifyPlan(plan)
	for i, s := range scalars(out) {
		if got := s.String(); strings.Contains(got, "(1 = #0)") || !strings.Contains(got, "case when (#0 = 1)") {
			t.Errorf("scalar %d not simplified: %s", i, got)
		}
	}
	if again := SimplifyPlan(out); algebra.Explain(again) != algebra.Explain(out) {
		t.Fatalf("SimplifyPlan is not idempotent:\n%s\nthen\n%s", algebra.Explain(out), algebra.Explain(again))
	}
}

// TestSimplifyPlanCopiesOnChange: SimplifyPlan never writes to the plan
// it is given (a cached template may be re-simplified), a branch with
// nothing to simplify comes back as the same node, and every UnionAll
// branch is reached.
func TestSimplifyPlanCopiesOnChange(t *testing.T) {
	mk := func() *algebra.UnionAllNode {
		scan := aggPlan(algebra.AggSum).Input
		return &algebra.UnionAllNode{Inputs: []algebra.Node{
			&algebra.SelectNode{Input: scan, Pred: colCmp()},
			&algebra.SelectNode{Input: scan, Pred: litLeftCmp()},
			&algebra.SelectNode{Input: scan, Pred: &algebra.Cmp{Op: algebra.CmpEq, L: litI(1), R: litI(1)}},
		}}
	}
	plan := mk()
	out := SimplifyPlan(plan).(*algebra.UnionAllNode)
	if !reflect.DeepEqual(plan, mk()) {
		t.Fatal("SimplifyPlan mutated its input")
	}
	if out.Inputs[0] != plan.Inputs[0] {
		t.Error("a branch with nothing to simplify was copied")
	}
	if got := algebra.Explain(out.Inputs[1]); got != algebra.Explain(plan.Inputs[0]) {
		t.Errorf("second branch not simplified:\n%s", got)
	}
	if _, isScan := out.Inputs[2].(*algebra.ScanNode); !isScan {
		t.Errorf("a Select folding to true was not dropped:\n%s", algebra.Explain(out.Inputs[2]))
	}
}

// litLeftCmp is colCmp with its constant on the left, as simplification
// does not leave it.
func litLeftCmp() algebra.Scalar {
	return &algebra.Cmp{Op: algebra.CmpEq, L: litI(1), R: colI(0)}
}

func colCmp() algebra.Scalar {
	return &algebra.Cmp{Op: algebra.CmpEq, L: colI(0), R: litI(1)}
}

func buildCat(t *testing.T, rows, groupRows int) *catalog.Catalog {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "g", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindF64},
	)
	b := storage.NewBuilder("t", schema, groupRows)
	for i := 0; i < rows; i++ {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(i % 13)), vtypes.F64Value(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Put(tbl)
	return cat
}

func aggPlan(fn algebra.AggFn) *algebra.AggNode {
	return &algebra.AggNode{
		Input: &algebra.ScanNode{Table: "t", Cols: []int{0, 1},
			Out: vtypes.NewSchema(
				vtypes.Column{Name: "g", Kind: vtypes.KindI64},
				vtypes.Column{Name: "v", Kind: vtypes.KindF64})},
		GroupBy: []algebra.Scalar{colI(0)},
		Aggs:    []algebra.AggExpr{{Fn: fn, Arg: &algebra.ColRef{Idx: 1, K: vtypes.KindF64}}},
		Names:   []string{"g", "a"},
	}
}

func TestParallelizeAggMatchesSerial(t *testing.T) {
	cat := buildCat(t, 5000, 512)
	for _, fn := range []algebra.AggFn{algebra.AggSum, algebra.AggCount, algebra.AggMin, algebra.AggMax} {
		serialRows, err := tupleengine.Run(aggPlan(fn), cat)
		if err != nil {
			t.Fatal(err)
		}
		par := Parallelize(aggPlan(fn), cat, 4)
		if _, isAgg := par.(*algebra.AggNode); !isAgg {
			t.Fatalf("fn %v: parallel plan should be final-agg-rooted, got %T", fn, par)
		}
		op, err := xcompile.Compile(par, cat, xcompile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		parRows, err := core.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(parRows) != len(serialRows) {
			t.Fatalf("fn %v: %d parallel rows vs %d serial", fn, len(parRows), len(serialRows))
		}
		// Compare as maps (exchange reorders groups).
		want := map[int64]float64{}
		for _, r := range serialRows {
			want[r[0].I64] = r[1].AsFloat()
		}
		for _, r := range parRows {
			w := want[r[0].I64]
			g := r[1].AsFloat()
			if diff := g - w; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("fn %v group %d: parallel %v vs serial %v", fn, r[0].I64, g, w)
			}
		}
	}
}

func TestParallelizeInjectsExchange(t *testing.T) {
	cat := buildCat(t, 5000, 512)
	par := Parallelize(aggPlan(algebra.AggSum), cat, 4)
	plan := algebra.Explain(par)
	if !strings.Contains(plan, "XchgUnion") {
		t.Fatalf("no exchange in plan:\n%s", plan)
	}
	if !strings.Contains(plan, "part=") {
		t.Fatalf("no partitioned scans in plan:\n%s", plan)
	}
}

func TestParallelizeLeavesSmallTablesAlone(t *testing.T) {
	cat := buildCat(t, 100, 512) // single row group
	par := Parallelize(aggPlan(algebra.AggSum), cat, 4)
	if strings.Contains(algebra.Explain(par), "XchgUnion") {
		t.Fatal("single-group table must not parallelize")
	}
	// workers <= 1 is a no-op.
	same := Parallelize(aggPlan(algebra.AggSum), cat, 1)
	if strings.Contains(algebra.Explain(same), "XchgUnion") {
		t.Fatal("workers=1 must not parallelize")
	}
}

// TestSplitOfPartialStaysPartial: a shard's half of a distributed
// aggregate is itself split over that shard's row groups. Its final
// aggregate recombines partitions, not the statement, so over no rows it
// must send the coordinator no row — else a shard the predicate empties
// feeds MIN a zero.
func TestSplitOfPartialStaysPartial(t *testing.T) {
	cat := buildCat(t, 5000, 512)
	scan := aggPlan(algebra.AggMin).Input
	noRows := &algebra.SelectNode{Input: scan, Pred: &algebra.Cmp{Op: algebra.CmpLt, L: colI(0), R: litI(0)}}
	global := &algebra.AggNode{Input: noRows, Names: []string{"a"},
		Aggs: []algebra.AggExpr{{Fn: algebra.AggMin, Arg: &algebra.ColRef{Idx: 1, K: vtypes.KindF64}}}}
	for _, c := range []struct {
		name string
		plan algebra.Node
		rows int
	}{
		{"statement", global, 1}, // SQL's one row for an ungrouped aggregate
		{"shard half", func() algebra.Node { below, _ := Split(global); return below }(), 0},
	} {
		par := Parallelize(c.plan, cat, 4)
		final, ok := par.(*algebra.AggNode)
		if !ok || !strings.Contains(algebra.Explain(par), "XchgUnion") {
			t.Fatalf("%s: want a final aggregate over an exchange:\n%s", c.name, algebra.Explain(par))
		}
		if final.Partial != (c.rows == 0) {
			t.Fatalf("%s: final aggregate Partial = %v", c.name, final.Partial)
		}
		op, err := xcompile.Compile(par, cat, xcompile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := core.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.rows {
			t.Fatalf("%s: %d rows over an empty input, want %d", c.name, len(rows), c.rows)
		}
	}
}

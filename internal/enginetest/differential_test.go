// Package enginetest cross-checks the three execution engines — the
// vectorized X100 core, the tuple-at-a-time Volcano baseline, and the
// column-at-a-time materializing baseline — on identical algebra plans.
// Any divergence is a bug in one of them; this is both our correctness
// net and the foundation of the paper's engine comparisons (same plan,
// same storage, different execution discipline).
package enginetest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/matengine"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// fixture builds a catalog with two related tables.
func fixture(t testing.TB, rows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()

	items := vtypes.NewSchema(
		vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "grp", Kind: vtypes.KindI64},
		vtypes.Column{Name: "price", Kind: vtypes.KindF64},
		vtypes.Column{Name: "qty", Kind: vtypes.KindI64},
		vtypes.Column{Name: "mode", Kind: vtypes.KindStr},
		vtypes.Column{Name: "shipped", Kind: vtypes.KindDate},
	)
	ib := storage.NewBuilder("items", items, 200)
	modes := []string{"RAIL", "AIR", "TRUCK", "SHIP"}
	rng := rand.New(rand.NewSource(11))
	base := vtypes.MustParseDate("1995-01-01")
	for i := 0; i < rows; i++ {
		if err := ib.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)),
			vtypes.I64Value(rng.Int63n(20)),
			vtypes.F64Value(float64(rng.Intn(10000)) / 100),
			vtypes.I64Value(rng.Int63n(50) + 1),
			vtypes.StrValue(modes[rng.Intn(len(modes))]),
			vtypes.DateValue(base + rng.Int63n(1000)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	itbl, err := ib.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat.Put(itbl)

	grps := vtypes.NewSchema(
		vtypes.Column{Name: "gid", Kind: vtypes.KindI64},
		vtypes.Column{Name: "gname", Kind: vtypes.KindStr},
	)
	gb := storage.NewBuilder("grps", grps, 64)
	for i := 0; i < 15; i++ { // deliberately missing groups 15..19
		if err := gb.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)), vtypes.StrValue(fmt.Sprintf("g-%02d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	gtbl, err := gb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat.Put(gtbl)
	return cat
}

// runAll executes the plan on all three engines, returning sorted row
// renderings.
func runAll(t testing.TB, cat *catalog.Catalog, plan algebra.Node) (vec, tup, mat []string) {
	t.Helper()
	op, err := xcompile.Compile(plan, cat, xcompile.Options{})
	if err != nil {
		t.Fatalf("xcompile: %v", err)
	}
	vrows, err := core.Collect(op)
	if err != nil {
		t.Fatalf("vectorized run: %v", err)
	}
	trows, err := tupleengine.Run(plan, cat)
	if err != nil {
		t.Fatalf("tuple run: %v", err)
	}
	mrows, err := matengine.Run(plan, cat)
	if err != nil {
		t.Fatalf("materialized run: %v", err)
	}
	return render(vrows), render(trows), render(mrows)
}

// render canonicalizes rows: floats rounded to tolerate summation-order
// differences across engines.
func render(rows []vtypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var parts []string
		for _, v := range r {
			if !v.Null && v.Kind == vtypes.KindF64 {
				parts = append(parts, fmt.Sprintf("%.6f", v.F64))
				continue
			}
			parts = append(parts, v.String())
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func expectEqual(t *testing.T, name string, vec, tup, mat []string) {
	t.Helper()
	if len(vec) != len(tup) || len(vec) != len(mat) {
		t.Fatalf("%s: row counts differ: vec=%d tuple=%d mat=%d", name, len(vec), len(tup), len(mat))
	}
	for i := range vec {
		if vec[i] != tup[i] {
			t.Fatalf("%s row %d: vectorized %q != tuple %q", name, i, vec[i], tup[i])
		}
		if vec[i] != mat[i] {
			t.Fatalf("%s row %d: vectorized %q != materialized %q", name, i, vec[i], mat[i])
		}
	}
}

func colRef(i int, k vtypes.Kind) algebra.Scalar { return &algebra.ColRef{Idx: i, K: k} }
func lit(v vtypes.Value) algebra.Scalar          { return &algebra.Lit{Val: v} }

func scanItems(cols ...int) *algebra.ScanNode {
	full := []vtypes.Column{
		{Name: "id", Kind: vtypes.KindI64},
		{Name: "grp", Kind: vtypes.KindI64},
		{Name: "price", Kind: vtypes.KindF64},
		{Name: "qty", Kind: vtypes.KindI64},
		{Name: "mode", Kind: vtypes.KindStr},
		{Name: "shipped", Kind: vtypes.KindDate},
	}
	var out []vtypes.Column
	for _, c := range cols {
		out = append(out, full[c])
	}
	return &algebra.ScanNode{Table: "items", Cols: cols, Out: &vtypes.Schema{Cols: out}}
}

func TestDifferentialFilterProject(t *testing.T) {
	cat := fixture(t, 2000)
	mul, err := algebra.NewArith(algebra.OpMul, colRef(1, vtypes.KindF64), &algebra.Cast{In: colRef(2, vtypes.KindI64), To: vtypes.KindF64})
	if err != nil {
		t.Fatal(err)
	}
	plan := &algebra.ProjectNode{
		Input: &algebra.SelectNode{
			Input: scanItems(0, 2, 3, 4),
			Pred: &algebra.And{Preds: []algebra.Scalar{
				&algebra.Cmp{Op: algebra.CmpLt, L: colRef(1, vtypes.KindF64), R: lit(vtypes.F64Value(50))},
				&algebra.In{In: colRef(3, vtypes.KindStr), List: []vtypes.Value{vtypes.StrValue("RAIL"), vtypes.StrValue("AIR")}},
			}},
		},
		Exprs: []algebra.Scalar{colRef(0, vtypes.KindI64), mul},
		Names: []string{"id", "value"},
	}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "filter-project", vec, tup, mat)
}

func TestDifferentialAggregation(t *testing.T) {
	cat := fixture(t, 3000)
	plan := &algebra.AggNode{
		Input:   scanItems(1, 2, 3),
		GroupBy: []algebra.Scalar{colRef(0, vtypes.KindI64)},
		Aggs: []algebra.AggExpr{
			{Fn: algebra.AggSum, Arg: colRef(1, vtypes.KindF64)},
			{Fn: algebra.AggCountStar},
			{Fn: algebra.AggMin, Arg: colRef(2, vtypes.KindI64)},
			{Fn: algebra.AggMax, Arg: colRef(2, vtypes.KindI64)},
			{Fn: algebra.AggCount, Arg: colRef(1, vtypes.KindF64)},
		},
		Names: []string{"grp", "total", "n", "minq", "maxq", "np"},
	}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "aggregate", vec, tup, mat)
}

func TestDifferentialJoins(t *testing.T) {
	cat := fixture(t, 1500)
	gscan := &algebra.ScanNode{Table: "grps", Cols: []int{0, 1},
		Out: vtypes.NewSchema(
			vtypes.Column{Name: "gid", Kind: vtypes.KindI64},
			vtypes.Column{Name: "gname", Kind: vtypes.KindStr})}
	for _, typ := range []algebra.JoinType{algebra.JoinInner, algebra.JoinLeftSemi, algebra.JoinLeftAnti, algebra.JoinLeftOuter} {
		plan := &algebra.JoinNode{
			Left:      scanItems(0, 1, 2),
			Right:     gscan,
			LeftKeys:  []algebra.Scalar{colRef(1, vtypes.KindI64)},
			RightKeys: []algebra.Scalar{colRef(0, vtypes.KindI64)},
			Type:      typ,
		}
		vec, tup, mat := runAll(t, cat, plan)
		expectEqual(t, "join-"+typ.String(), vec, tup, mat)
		if len(vec) == 0 {
			t.Fatalf("join %v produced no rows (fixture should)", typ)
		}
	}
}

func TestDifferentialSortLimit(t *testing.T) {
	cat := fixture(t, 800)
	plan := &algebra.LimitNode{
		N: 25,
		Input: &algebra.SortNode{
			Input: scanItems(0, 2, 4),
			Keys: []algebra.SortKey{
				{Expr: colRef(1, vtypes.KindF64), Desc: true},
				{Expr: colRef(0, vtypes.KindI64)},
			},
		},
	}
	// Sorted output: compare in order (not re-sorted), keys make it
	// deterministic.
	op, err := xcompile.Compile(plan, cat, xcompile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vrows, err := core.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	trows, err := tupleengine.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	mrows, err := matengine.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(vrows) != 25 || len(trows) != 25 || len(mrows) != 25 {
		t.Fatalf("limits: %d %d %d", len(vrows), len(trows), len(mrows))
	}
	for i := range vrows {
		for c := range vrows[i] {
			if !vrows[i][c].Equal(trows[i][c]) || !vrows[i][c].Equal(mrows[i][c]) {
				t.Fatalf("sorted row %d col %d differs: %v %v %v", i, c, vrows[i][c], trows[i][c], mrows[i][c])
			}
		}
	}
}

// TestDifferentialSortFloatTotalOrder: ORDER BY a DOUBLE holding NaN, ±0,
// ±Inf, a subnormal and NULL gives the same rows in the same places on all
// three engines, ascending and descending: NULL, then NaN, then -Inf ...
// +Inf, with -0 and +0 (and each value's duplicates) in input order. The
// reference engines sort with Value.Compare, the vectorized one on
// normalized key bytes; both must be cmp.Compare's total order.
func TestDifferentialSortFloatTotalOrder(t *testing.T) {
	cat := catalog.New()
	schema := vtypes.NewSchema(vtypes.Column{Name: "id", Kind: vtypes.KindI64}, nullableCol("x", vtypes.KindF64))
	xs := []float64{1.5, math.NaN(), 0, math.Inf(1), math.Copysign(0, -1), -2, math.Inf(-1), 5e-324,
		-math.NaN(), math.Copysign(0, -1), 0, 1.5, math.Inf(-1)}
	var rows []vtypes.Row
	for rep := 0; rep < 40; rep++ { // past the radix sort's insertion-sort leaves
		for _, x := range xs {
			rows = append(rows, vtypes.Row{vtypes.I64Value(int64(len(rows))), vtypes.F64Value(x)})
		}
		rows = append(rows, vtypes.Row{vtypes.I64Value(int64(len(rows))), vtypes.NullValue(vtypes.KindF64)})
	}
	scan := addTable(t, cat, "floats", schema, rows)
	for _, desc := range []bool{false, true} {
		plan := &algebra.SortNode{Input: scan, Keys: []algebra.SortKey{{Expr: colRef(1, vtypes.KindF64), Desc: desc}}}
		op, err := xcompile.Compile(plan, cat, xcompile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		vrows, err := core.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		trows, err := tupleengine.Run(plan, cat)
		if err != nil {
			t.Fatal(err)
		}
		mrows, err := matengine.Run(plan, cat)
		if err != nil {
			t.Fatal(err)
		}
		if len(vrows) != len(rows) || len(trows) != len(rows) || len(mrows) != len(rows) {
			t.Fatalf("desc=%v: %d %d %d rows, want %d", desc, len(vrows), len(trows), len(mrows), len(rows))
		}
		for i := range vrows {
			if v, tu, m := fmt.Sprint(vrows[i]), fmt.Sprint(trows[i]), fmt.Sprint(mrows[i]); v != tu || v != m {
				t.Fatalf("desc=%v row %d: vectorized %s, tuple %s, materialized %s", desc, i, v, tu, m)
			}
		}
		first, last := vrows[0][1], vrows[len(vrows)-1][1]
		if desc {
			first, last = last, first
		}
		if !first.Null || last.F64 != math.Inf(1) {
			t.Fatalf("desc=%v: order runs from %v to %v, want NULL to +Inf", desc, first, last)
		}
	}
}

func TestDifferentialCaseLikeBetweenYear(t *testing.T) {
	cat := fixture(t, 1200)
	isAir, err := algebra.NewCase(
		&algebra.Like{In: colRef(2, vtypes.KindStr), Pattern: "A%"},
		colRef(1, vtypes.KindF64),
		lit(vtypes.F64Value(0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	plan := &algebra.AggNode{
		Input: &algebra.SelectNode{
			Input: scanItems(0, 2, 4, 5),
			Pred: &algebra.Or{Preds: []algebra.Scalar{
				&algebra.And{Preds: []algebra.Scalar{
					&algebra.Cmp{Op: algebra.CmpGe, L: colRef(3, vtypes.KindDate), R: lit(vtypes.DateValue(vtypes.MustParseDate("1995-06-01")))},
					&algebra.Cmp{Op: algebra.CmpLe, L: colRef(3, vtypes.KindDate), R: lit(vtypes.DateValue(vtypes.MustParseDate("1996-06-01")))},
				}},
				&algebra.Cmp{Op: algebra.CmpEq, L: colRef(2, vtypes.KindStr), R: lit(vtypes.StrValue("SHIP"))},
			}},
		},
		GroupBy: []algebra.Scalar{&algebra.YearOf{In: colRef(3, vtypes.KindDate)}},
		Aggs: []algebra.AggExpr{
			{Fn: algebra.AggSum, Arg: isAir},
			{Fn: algebra.AggCountStar},
		},
		Names: []string{"year", "airsum", "n"},
	}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "case-like-between-year", vec, tup, mat)
}

func TestDifferentialUnionAll(t *testing.T) {
	cat := fixture(t, 1000)
	mk := func(lo, hi int) algebra.Node {
		s := scanItems(0, 1)
		s.PartLo, s.PartHi = lo, hi
		return s
	}
	plan := &algebra.AggNode{
		Input:   &algebra.UnionAllNode{Inputs: []algebra.Node{mk(0, 3), mk(3, 5)}},
		GroupBy: []algebra.Scalar{colRef(1, vtypes.KindI64)},
		Aggs:    []algebra.AggExpr{{Fn: algebra.AggCountStar}},
		Names:   []string{"grp", "n"},
	}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "union-all", vec, tup, mat)
}

func TestDifferentialWithPDTLayers(t *testing.T) {
	cat := fixture(t, 600)
	itbl, _, err := cat.Resolve("items")
	if err != nil {
		t.Fatal(err)
	}
	master := pdt.New(itbl.Schema(), itbl.Rows())
	if err := master.Delete(10); err != nil {
		t.Fatal(err)
	}
	if err := master.Modify(20, 2, vtypes.F64Value(123.45)); err != nil {
		t.Fatal(err)
	}
	if err := master.Append(vtypes.Row{
		vtypes.I64Value(9999), vtypes.I64Value(3), vtypes.F64Value(1.25),
		vtypes.I64Value(2), vtypes.StrValue("RAIL"), vtypes.DateValue(9000),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.SetLayers("items", []*pdt.PDT{master}); err != nil {
		t.Fatal(err)
	}
	plan := &algebra.AggNode{
		Input:   scanItems(1, 2),
		GroupBy: []algebra.Scalar{colRef(0, vtypes.KindI64)},
		Aggs:    []algebra.AggExpr{{Fn: algebra.AggSum, Arg: colRef(1, vtypes.KindF64)}, {Fn: algebra.AggCountStar}},
		Names:   []string{"grp", "s", "n"},
	}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "pdt-layers", vec, tup, mat)
}

// TestDifferentialRandomPlans fuzzes simple select-project-aggregate
// plans across the engines.
func TestDifferentialRandomPlans(t *testing.T) {
	cat := fixture(t, 900)
	rng := rand.New(rand.NewSource(77))
	modes := []string{"RAIL", "AIR", "TRUCK", "SHIP"}
	for trial := 0; trial < 25; trial++ {
		var preds []algebra.Scalar
		if rng.Intn(2) == 0 {
			preds = append(preds, &algebra.Cmp{
				Op: algebra.CmpOp(rng.Intn(6)),
				L:  colRef(1, vtypes.KindF64),
				R:  lit(vtypes.F64Value(float64(rng.Intn(100)))),
			})
		}
		if rng.Intn(2) == 0 {
			preds = append(preds, &algebra.Cmp{
				Op: algebra.CmpOp(rng.Intn(6)),
				L:  colRef(2, vtypes.KindI64),
				R:  lit(vtypes.I64Value(rng.Int63n(50))),
			})
		}
		preds = append(preds, &algebra.Like{
			In:      colRef(3, vtypes.KindStr),
			Pattern: "%" + string(modes[rng.Intn(4)][0]) + "%",
			Negate:  rng.Intn(2) == 0,
		})
		var input algebra.Node = scanItems(0, 2, 3, 4)
		input = &algebra.SelectNode{Input: input, Pred: &algebra.And{Preds: preds}}
		plan := &algebra.AggNode{
			Input:   input,
			GroupBy: []algebra.Scalar{colRef(3, vtypes.KindStr)},
			Aggs: []algebra.AggExpr{
				{Fn: algebra.AggSum, Arg: colRef(2, vtypes.KindI64)},
				{Fn: algebra.AggCountStar},
			},
			Names: []string{"mode", "q", "n"},
		}
		vec, tup, mat := runAll(t, cat, plan)
		expectEqual(t, fmt.Sprintf("random-%d", trial), vec, tup, mat)
	}
}

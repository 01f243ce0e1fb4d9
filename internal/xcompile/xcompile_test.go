package xcompile

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

func buildCat(t *testing.T) *catalog.Catalog {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "n", Kind: vtypes.KindI64, Nullable: true},
	)
	b := storage.NewBuilder("t", schema, 64)
	for i := 0; i < 100; i++ {
		v := vtypes.I64Value(int64(i))
		if i%5 == 0 {
			v = vtypes.NullValue(vtypes.KindI64)
		}
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), v}); err != nil {
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

func scanT() *algebra.ScanNode {
	return &algebra.ScanNode{Table: "t", Cols: []int{0, 1},
		Out: vtypes.NewSchema(
			vtypes.Column{Name: "k", Kind: vtypes.KindI64},
			vtypes.Column{Name: "n", Kind: vtypes.KindI64, Nullable: true})}
}

func TestCompileIsNullPredicate(t *testing.T) {
	cat := buildCat(t)
	plan := &algebra.SelectNode{
		Input: scanT(),
		Pred:  &algebra.IsNull{In: &algebra.ColRef{Idx: 1, K: vtypes.KindI64}},
	}
	op, err := Compile(plan, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := core.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("IS NULL matched %d rows, want 20", len(rows))
	}
	// Negated form selects the complement.
	plan.Pred = &algebra.IsNull{In: &algebra.ColRef{Idx: 1, K: vtypes.KindI64}, Negate: true}
	op, err = Compile(plan, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err = core.Collect(op)
	if err != nil || len(rows) != 80 {
		t.Fatalf("IS NOT NULL matched %d rows, want 80 (%v)", len(rows), err)
	}
}

func TestNullPredOnColumnWithoutIndicator(t *testing.T) {
	cat := buildCat(t)
	// Column 0 has no NULLs (no indicator chunk).
	plan := &algebra.SelectNode{
		Input: scanT(),
		Pred:  &algebra.IsNull{In: &algebra.ColRef{Idx: 0, K: vtypes.KindI64}},
	}
	op, err := Compile(plan, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := core.Collect(op)
	if err != nil || len(rows) != 0 {
		t.Fatalf("IS NULL on non-nullable col: %d rows", len(rows))
	}
	plan.Pred = &algebra.IsNull{In: &algebra.ColRef{Idx: 0, K: vtypes.KindI64}, Negate: true}
	op, _ = Compile(plan, cat, Options{})
	rows, err = core.Collect(op)
	if err != nil || len(rows) != 100 {
		t.Fatalf("IS NOT NULL on non-nullable col: %d rows", len(rows))
	}
}

func TestCompileErrors(t *testing.T) {
	cat := buildCat(t)
	// Unknown table.
	if _, err := Compile(&algebra.ScanNode{Table: "nope", Cols: []int{0}}, cat, Options{}); err == nil {
		t.Fatal("unknown table must error")
	}
	// IS NULL on a non-column expression is unsupported.
	arith, _ := algebra.NewArith(algebra.OpAdd,
		&algebra.ColRef{Idx: 0, K: vtypes.KindI64}, &algebra.Lit{Val: vtypes.I64Value(1)})
	bad := &algebra.SelectNode{Input: scanT(), Pred: &algebra.IsNull{In: arith}}
	if _, err := Compile(bad, cat, Options{}); err == nil {
		t.Fatal("IS NULL on expression must error")
	}
	// Join with mismatched key counts.
	if _, err := Compile(&algebra.JoinNode{
		Left: scanT(), Right: scanT(),
		LeftKeys: []algebra.Scalar{&algebra.ColRef{Idx: 0, K: vtypes.KindI64}},
	}, cat, Options{}); err == nil {
		t.Fatal("key mismatch must error")
	}
}

func TestCompileAutoPrune(t *testing.T) {
	cat := buildCat(t)
	// A filtered scan prunes row groups from its own filter: k >= 64
	// refutes group 0 (k in [0,64)) by min/max and pre-filters the
	// surviving group, no caller-supplied hook involved.
	stats := &storage.ScanStats{}
	op, err := Compile(filterT(kGe(vtypes.I64Value(64))), cat, Options{ScanStats: stats})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := core.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if len(rows) != 36 || snap.GroupsPruned != 1 || snap.GroupsScanned != 1 {
		t.Fatalf("auto prune: rows=%d stats=%+v", len(rows), snap)
	}
	// NoPrune keeps the filter but scans every group.
	stats = &storage.ScanStats{}
	op, err = Compile(filterT(kGe(vtypes.I64Value(64))), cat, Options{ScanStats: stats, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	rows, err = core.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	snap = stats.Snapshot()
	if len(rows) != 36 || snap.GroupsPruned != 0 || snap.GroupsScanned != 2 {
		t.Fatalf("noprune: rows=%d stats=%+v", len(rows), snap)
	}
	// An integer column against a float literal filters as DOUBLE
	// (expr.NewCmpConst) and declines to prune: algebra.ReadInterval
	// reads a literal of the other class as a constraint of unknown value.
	stats = &storage.ScanStats{}
	if op, err = Compile(filterT(kGe(vtypes.F64Value(64.5))), cat, Options{ScanStats: stats}); err != nil {
		t.Fatal(err)
	}
	if rows, err = core.Collect(op); err != nil {
		t.Fatal(err)
	}
	snap = stats.Snapshot()
	if len(rows) != 35 || snap.GroupsPruned != 0 || snap.GroupsScanned != 2 {
		t.Fatalf("k >= 64.5: rows=%d stats=%+v, want 35 rows and no group pruned", len(rows), snap)
	}
}

// TestSkipOf: a group skips when the intersection of one column's
// filters refutes its min/max, wherever those filters stand; a filter no
// statistics can judge refutes nothing and is not among the columns the
// Skip reads; 70 filters on one column intersect as one. The search is of
// the first BIGINT or DATE column the filters bound, of a table holding a
// Sorted chunk of it, never of a column with only an IN list.
func TestSkipOf(t *testing.T) {
	k, v := &algebra.ColRef{Idx: 0, K: vtypes.KindI64}, &algebra.ColRef{Idx: 1, K: vtypes.KindI64}
	d := &algebra.ColRef{Idx: 2, K: vtypes.KindDate}
	cmp := func(c *algebra.ColRef, op algebra.CmpOp, n int64) algebra.Scalar {
		return &algebra.Cmp{Op: op, L: c, R: &algebra.Lit{Val: vtypes.Value{Kind: c.K, I64: n}}}
	}
	fcmp := func(c *algebra.ColRef, op algebra.CmpOp, f float64) algebra.Scalar {
		return &algebra.Cmp{Op: op, L: c, R: &algebra.Lit{Val: vtypes.F64Value(f)}}
	}
	in := &algebra.In{In: k, List: []vtypes.Value{vtypes.I64Value(1), vtypes.I64Value(2)}}
	group := func(kLo, kHi int64) *storage.GroupMeta {
		return &storage.GroupMeta{Cols: []storage.ChunkMeta{
			{HasStats: true, MinI64: 100, MaxI64: 200}, {}, {HasStats: true, MinI64: kLo, MaxI64: kHi}}}
	}
	table := func(sorted bool) *storage.Table {
		return &storage.Table{Meta: storage.TableMeta{Groups: []storage.GroupMeta{{Cols: []storage.ChunkMeta{
			{}, {Sorted: sorted}, {Sorted: sorted}}}}}}
	}
	cols := []int{2, 0, 1} // k is table column 2, v table column 0, d table column 1
	unknown := &algebra.Cmp{Op: algebra.CmpGe, L: v, R: &algebra.Lit{Val: vtypes.F64Value(0.5)}}
	var many []algebra.Scalar
	for n := int64(0); n < 70; n++ {
		many = append(many, cmp(k, algebra.CmpGe, n))
	}
	kRead, kvRead := pdt.ColSet(0).With(2), pdt.ColSet(0).With(0).With(2)
	for _, c := range []struct {
		name    string
		filters []algebra.Scalar
		sorted  bool
		kLo     int64
		kHi     int64
		pruned  bool
		read    pdt.ColSet
		col     int
		lo, hi  int64
	}{
		{"apart, disjoint", []algebra.Scalar{cmp(k, algebra.CmpGt, 5), cmp(v, algebra.CmpGe, 0), cmp(k, algebra.CmpLt, 3)}, false, 0, 100, true, kvRead, -1, 0, 0},
		{"apart, range outside", []algebra.Scalar{cmp(k, algebra.CmpGe, 50), unknown, cmp(k, algebra.CmpLe, 60)}, false, 0, 40, true, kRead, -1, 0, 0},
		{"apart, range inside", []algebra.Scalar{cmp(k, algebra.CmpGe, 50), unknown, cmp(k, algebra.CmpLe, 60)}, false, 0, 55, false, kRead, -1, 0, 0},
		{"a DOUBLE BETWEEN on k refutes nothing", []algebra.Scalar{fcmp(k, algebra.CmpGe, 50.5), fcmp(k, algebra.CmpLe, 60.5), cmp(v, algebra.CmpGe, 0)}, false, 40, 55, false, pdt.ColSet(0).With(0), -1, 0, 0},
		{"another column refutes", []algebra.Scalar{cmp(k, algebra.CmpGe, 0), cmp(v, algebra.CmpLt, 100)}, false, 0, 55, true, kvRead, -1, 0, 0},
		{"the 70th filter", many, false, 0, 65, true, kRead, -1, 0, 0},
		{"70 filters inside", many, false, 0, 69, false, kRead, -1, 0, 0},
		{"70 filters searched", many, true, 0, 69, false, kRead, 0, 69, math.MaxInt64},
		{"first bounded sorted column", []algebra.Scalar{cmp(v, algebra.CmpLt, 300), cmp(d, algebra.CmpGe, 7), cmp(k, algebra.CmpLe, 50), cmp(d, algebra.CmpLt, 9)}, true, 0, 55, false, kvRead.With(1), 2, 7, 8},
		{"k BETWEEN, unknown beside it", []algebra.Scalar{unknown, cmp(k, algebra.CmpGe, 10), cmp(k, algebra.CmpLe, 20)}, true, 0, 55, false, kRead, 0, 10, 20},
		{"an IN list is not searched", []algebra.Scalar{in, cmp(d, algebra.CmpLe, 4)}, true, 0, 55, false, kRead.With(1), 2, math.MinInt64, 4},
		{"only an IN list", []algebra.Scalar{in}, true, 0, 55, false, kRead, -1, 0, 0},
		{"k > MaxInt64", []algebra.Scalar{cmp(k, algebra.CmpGt, math.MaxInt64)}, true, 0, 55, true, kRead, 0, 1, 0},
		{"k < MinInt64", []algebra.Scalar{cmp(k, algebra.CmpLt, math.MinInt64)}, true, 0, 55, true, kRead, 0, 1, 0},
		{"unsorted table", []algebra.Scalar{cmp(k, algebra.CmpGe, 5)}, false, 0, 55, false, kRead, -1, 0, 0},
	} {
		sk, read := skipOf(table(c.sorted), cols, algebra.ReadConjunction(c.filters))
		if read != c.read {
			t.Errorf("%s: reads %b, want %b", c.name, read, c.read)
		}
		if sk == nil {
			t.Errorf("%s: no skip", c.name)
			continue
		}
		if got := sk.Refute(group(c.kLo, c.kHi)); got != c.pruned {
			t.Errorf("%s: pruned %v, want %v", c.name, got, c.pruned)
		}
		if sk.Col != c.col || c.col >= 0 && (sk.Lo != c.lo || sk.Hi != c.hi) {
			t.Errorf("%s: searched column %d over [%d, %d], want %d over [%d, %d]", c.name, sk.Col, sk.Lo, sk.Hi, c.col, c.lo, c.hi)
		}
	}
	if sk, read := skipOf(table(true), cols, algebra.ReadConjunction([]algebra.Scalar{unknown})); sk != nil || read != 0 {
		t.Errorf("a filter of unknown value synthesized a skip over %b", read)
	}
}

// filterT is scanT under a Select of the conjuncts: the scan's filter.
func filterT(conj ...algebra.Scalar) *algebra.SelectNode {
	var pred algebra.Scalar = &algebra.And{Preds: conj}
	if len(conj) == 1 {
		pred = conj[0]
	}
	return &algebra.SelectNode{Input: scanT(), Pred: pred}
}

// kGe is `k >= v`.
func kGe(v vtypes.Value) algebra.Scalar {
	return &algebra.Cmp{Op: algebra.CmpGe, L: &algebra.ColRef{Idx: 0, K: vtypes.KindI64}, R: &algebra.Lit{Val: v}}
}

// TestSelectOverScanFuses: a Select directly over a Scan compiles to the
// scan alone, whose filter runs every conjunct and whose Skip reads the
// ones algebra.ReadInterval reads, wherever they stand in the predicate.
// A Select over anything else stays a Select and skips nothing.
func TestSelectOverScanFuses(t *testing.T) {
	cat := buildCat(t)
	nIsNull := &algebra.IsNull{In: &algebra.ColRef{Idx: 1, K: vtypes.KindI64}}
	run := func(plan algebra.Node) (core.Operator, int, storage.ScanStatsSnapshot) {
		t.Helper()
		stats := &storage.ScanStats{}
		op, err := Compile(plan, cat, Options{ScanStats: stats})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := core.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		return op, len(rows), stats.Snapshot()
	}
	// n IS NULL AND k >= 64: k in {65, 70, ..., 95}; group 0 pruned.
	op, n, st := run(filterT(nIsNull, kGe(vtypes.I64Value(64))))
	if _, ok := op.(*core.Scan); !ok {
		t.Fatalf("Select over Scan compiled to %T, want one Scan", op)
	}
	if n != 7 || st.GroupsPruned != 1 || st.GroupsScanned != 1 {
		t.Fatalf("fused filter: %d rows, stats %+v; want 7 rows, 1 group pruned, 1 scanned", n, st)
	}
	// The same Select over a projection of the scan.
	k, nc := &algebra.ColRef{Idx: 0, K: vtypes.KindI64}, &algebra.ColRef{Idx: 1, K: vtypes.KindI64}
	proj := &algebra.ProjectNode{Input: scanT(), Exprs: []algebra.Scalar{k, nc}, Names: []string{"k", "n"}}
	sel := filterT(nIsNull, kGe(vtypes.I64Value(64)))
	sel.Input = proj
	op, n, st = run(sel)
	if _, ok := op.(*core.Select); !ok {
		t.Fatalf("Select over Project compiled to %T, want a Select", op)
	}
	if n != 7 || st.GroupsPruned != 0 || st.GroupsScanned != 2 {
		t.Fatalf("Select over Project: %d rows, stats %+v; want 7 rows, no group pruned", n, st)
	}
}

// TestLimitOverSortCompilesToTopN: LIMIT over projections over ORDER BY
// becomes the bounded sort with no Limit operator above it; a LIMIT over
// anything else is still a Limit. NULLs come first ascending.
func TestLimitOverSortCompilesToTopN(t *testing.T) {
	cat := buildCat(t)
	sorted := &algebra.SortNode{Input: scanT(), Keys: []algebra.SortKey{
		{Expr: &algebra.ColRef{Idx: 1, K: vtypes.KindI64}}, {Expr: &algebra.ColRef{Idx: 0, K: vtypes.KindI64}, Desc: true}}}
	proj := &algebra.ProjectNode{Input: sorted, Exprs: []algebra.Scalar{&algebra.ColRef{Idx: 0, K: vtypes.KindI64}}, Names: []string{"k"}}
	op, err := Compile(&algebra.LimitNode{Input: proj, N: 22}, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*core.Project); !ok {
		t.Fatalf("LIMIT over PROJECT over SORT compiled to %T on top, want the projection (the sort carries the bound)", op)
	}
	rows, err := core.Collect(op)
	if err != nil || len(rows) != 22 {
		t.Fatalf("%d rows, want 22 (%v)", len(rows), err)
	}
	// The 20 NULLs by k descending, then n = 1, 2.
	if rows[0][0].I64 != 95 || rows[19][0].I64 != 0 || rows[20][0].I64 != 1 || rows[21][0].I64 != 2 {
		t.Fatalf("top 22 by (n, k DESC): %v", rows)
	}
	op, err = Compile(&algebra.LimitNode{Input: scanT(), N: 3}, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*core.Limit); !ok {
		t.Fatalf("LIMIT over a scan compiled to %T, want a Limit", op)
	}
}

// TestOrderDerivation pins which inputs hand an aggregate its group key in
// order, read off how it resolved keys: t.k is ordered in storage; order
// passes through Select, a column-reference Project and a join's probe
// columns; nothing else keeps it — a computed or nullable key, a join's
// build columns, a BuildLeft join, Sort, Limit or a union. Without order
// t.k's batches span a small range, so they group through the code cache
// (codes); the nullable key through the table.
func TestOrderDerivation(t *testing.T) {
	cat := buildCat(t)
	k, n := &algebra.ColRef{Idx: 0, K: vtypes.KindI64}, &algebra.ColRef{Idx: 1, K: vtypes.KindI64}
	kPlus1, err := algebra.NewArith(algebra.OpAdd, k, &algebra.Lit{Val: vtypes.I64Value(1)})
	if err != nil {
		t.Fatal(err)
	}
	join := func(buildLeft bool) *algebra.JoinNode {
		j := &algebra.JoinNode{Left: scanT(), Right: scanT(), LeftKeys: []algebra.Scalar{k}, RightKeys: []algebra.Scalar{k}}
		if buildLeft {
			j.Type, j.BuildLeft = algebra.JoinLeftSemi, true
		}
		return j
	}
	part := func(lo, hi int) algebra.Node {
		s := scanT()
		s.PartLo, s.PartHi = lo, hi
		return s
	}
	for _, c := range []struct {
		name  string
		input algebra.Node
		key   algebra.Scalar
		keys  string
	}{
		{"scan", scanT(), k, "runs"},
		{"select", &algebra.SelectNode{Input: scanT(), Pred: &algebra.Cmp{Op: algebra.CmpGt, L: k, R: &algebra.Lit{Val: vtypes.I64Value(10)}}}, k, "runs"},
		{"column project", &algebra.ProjectNode{Input: scanT(), Exprs: []algebra.Scalar{n, k}, Names: []string{"n", "k"}}, &algebra.ColRef{Idx: 1, K: vtypes.KindI64}, "runs"},
		{"partition", part(1, 2), k, "runs"},
		{"probe column", join(false), k, "runs"},
		{"computed key", &algebra.ProjectNode{Input: scanT(), Exprs: []algebra.Scalar{kPlus1}, Names: []string{"k1"}}, k, "codes"},
		{"nullable key", scanT(), n, "table"},
		{"build column", join(false), &algebra.ColRef{Idx: 2, K: vtypes.KindI64}, "codes"},
		{"build=left", join(true), k, "codes"},
		{"sort", &algebra.SortNode{Input: scanT(), Keys: []algebra.SortKey{{Expr: k}}}, k, "codes"},
		{"limit", &algebra.LimitNode{Input: scanT(), N: 50}, k, "codes"},
		{"union of partitions", &algebra.UnionAllNode{Inputs: []algebra.Node{part(0, 1), part(1, 2)}}, k, "codes"},
	} {
		plan := &algebra.AggNode{Input: c.input, GroupBy: []algebra.Scalar{c.key},
			Aggs: []algebra.AggExpr{{Fn: algebra.AggCountStar}}, Names: []string{"g", "n"}}
		var sink core.HashStatsSink
		op, err := Compile(plan, cat, Options{HashStats: &sink})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := core.Collect(op); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// An operator records at Close before closing its inputs.
		if got := sink.Snapshot()[0]; got.Op != "agg" || got.Keys != c.keys {
			t.Errorf("%s: the aggregate resolved keys by %q (%s), want %q", c.name, got.Keys, got.Op, c.keys)
		}
	}
}

// TestFuseRanges: within one conjunction, the bounds on one column
// whose intersection is closed at both ends compile as one between at
// the first bound's place — strict bounds on BIGINT/DATE shifted by one
// unless the shift would overflow, DOUBLE only when both ends are
// closed — and the plan's own conjuncts are left as they were.
func TestFuseRanges(t *testing.T) {
	col := func(idx int, k vtypes.Kind) *algebra.ColRef { return &algebra.ColRef{Idx: idx, K: k} }
	x, y, d, f := col(1, vtypes.KindI64), col(2, vtypes.KindI64), col(3, vtypes.KindDate), col(4, vtypes.KindF64)
	lit := func(v vtypes.Value) *algebra.Lit { return &algebra.Lit{Val: v} }
	i64 := func(n int64) *algebra.Lit { return lit(vtypes.I64Value(n)) }
	f64 := func(v float64) *algebra.Lit { return lit(vtypes.F64Value(v)) }
	cmp := func(l algebra.Scalar, op algebra.CmpOp, r algebra.Scalar) algebra.Scalar {
		return &algebra.Cmp{Op: op, L: l, R: r}
	}
	between := func(c *algebra.ColRef, lo, hi vtypes.Value) string {
		return fmt.Sprintf("(%s between %s and %s)", c, lo, hi)
	}
	k4 := cmp(col(0, vtypes.KindI64), algebra.CmpGe, i64(4))
	day := vtypes.MustParseDate("1995-01-01")
	for _, c := range []struct {
		name string
		conj []algebra.Scalar
		want []string
	}{
		{"closed pair", []algebra.Scalar{cmp(x, algebra.CmpGe, i64(1)), cmp(x, algebra.CmpLe, i64(5))},
			[]string{between(x, vtypes.I64Value(1), vtypes.I64Value(5))}},
		{"upper first, literal on the left, behind another conjunct",
			[]algebra.Scalar{k4, cmp(i64(9), algebra.CmpGe, x), cmp(i64(2), algebra.CmpLe, x)},
			[]string{k4.String(), between(x, vtypes.I64Value(2), vtypes.I64Value(9))}},
		{"strict pair shifts by one", []algebra.Scalar{cmp(x, algebra.CmpGt, i64(1)), cmp(x, algebra.CmpLt, i64(5))},
			[]string{between(x, vtypes.I64Value(2), vtypes.I64Value(4))}},
		{"strict DATE pair", []algebra.Scalar{cmp(d, algebra.CmpGt, lit(vtypes.DateValue(day))), cmp(d, algebra.CmpLt, lit(vtypes.DateValue(day+30)))},
			[]string{between(d, vtypes.DateValue(day+1), vtypes.DateValue(day+29))}},
		{"no shift past MaxInt64", []algebra.Scalar{cmp(x, algebra.CmpGt, i64(math.MaxInt64)), cmp(x, algebra.CmpLe, i64(5))},
			[]string{"(#1 > 9223372036854775807)", "(#1 <= 5)"}},
		{"no shift past MinInt64", []algebra.Scalar{cmp(x, algebra.CmpGe, i64(0)), cmp(x, algebra.CmpLt, i64(math.MinInt64))},
			[]string{"(#1 >= 0)", "(#1 < -9223372036854775808)"}},
		{"three bounds intersect", []algebra.Scalar{cmp(x, algebra.CmpGe, i64(1)), cmp(x, algebra.CmpGe, i64(2)), cmp(x, algebra.CmpLe, i64(5))},
			[]string{between(x, vtypes.I64Value(2), vtypes.I64Value(5))}},
		{"a BETWEEN and a bound intersect", []algebra.Scalar{k4, cmp(x, algebra.CmpGe, i64(0)), cmp(x, algebra.CmpLe, i64(9)), cmp(x, algebra.CmpLt, i64(7))},
			[]string{k4.String(), between(x, vtypes.I64Value(0), vtypes.I64Value(6))}},
		{"an empty intersection still fuses", []algebra.Scalar{cmp(x, algebra.CmpGt, i64(5)), cmp(x, algebra.CmpLt, i64(3))},
			[]string{between(x, vtypes.I64Value(6), vtypes.I64Value(2))}},
		{"IN and <> stay", []algebra.Scalar{cmp(x, algebra.CmpGe, i64(1)), &algebra.In{In: x, List: []vtypes.Value{vtypes.I64Value(2)}}, cmp(x, algebra.CmpNe, i64(3))},
			[]string{"(#1 >= 1)", "(#1 in [2])", "(#1 <> 3)"}},
		{"a <> beside a closed pair keeps both", []algebra.Scalar{cmp(x, algebra.CmpGe, i64(1)), cmp(x, algebra.CmpNe, i64(3)), cmp(x, algebra.CmpLe, i64(5))},
			[]string{"(#1 >= 1)", "(#1 <> 3)", "(#1 <= 5)"}},
		{"two columns stay apart", []algebra.Scalar{cmp(x, algebra.CmpGe, i64(1)), cmp(y, algebra.CmpLe, i64(5))},
			[]string{"(#1 >= 1)", "(#2 <= 5)"}},
		{"closed DOUBLE pair", []algebra.Scalar{cmp(f, algebra.CmpLe, f64(2.5)), cmp(f, algebra.CmpGe, f64(-1))},
			[]string{between(f, vtypes.F64Value(-1), vtypes.F64Value(2.5))}},
		{"strict DOUBLE stays", []algebra.Scalar{cmp(f, algebra.CmpGt, f64(0)), cmp(f, algebra.CmpLe, f64(1))},
			[]string{"(#4 > 0)", "(#4 <= 1)"}},
		{"a strict DOUBLE bound inside closed ones", []algebra.Scalar{cmp(f, algebra.CmpGt, f64(0)), cmp(f, algebra.CmpGe, f64(0.5)), cmp(f, algebra.CmpLe, f64(1))},
			[]string{between(f, vtypes.F64Value(0.5), vtypes.F64Value(1))}},
		{"a strict DOUBLE end of the intersection fuses none", []algebra.Scalar{cmp(f, algebra.CmpGe, f64(0)), cmp(f, algebra.CmpGt, f64(0.5)), cmp(f, algebra.CmpLe, f64(1)), cmp(f, algebra.CmpGe, f64(0.25))},
			[]string{"(#4 >= 0)", "(#4 > 0.5)", "(#4 <= 1)", "(#4 >= 0.25)"}},
		{"integer literal on DOUBLE stays", []algebra.Scalar{cmp(f, algebra.CmpGe, i64(0)), cmp(f, algebra.CmpLe, i64(1))},
			[]string{"(#4 >= 0)", "(#4 <= 1)"}},
		{"NaN bound stays", []algebra.Scalar{cmp(f, algebra.CmpGe, f64(math.NaN())), cmp(f, algebra.CmpLe, f64(1))},
			[]string{"(#4 >= NaN)", "(#4 <= 1)"}},
		{"NULL bound stays", []algebra.Scalar{cmp(x, algebra.CmpGe, lit(vtypes.NullValue(vtypes.KindI64))), cmp(x, algebra.CmpLe, i64(1))},
			[]string{"(#1 >= NULL)", "(#1 <= 1)"}},
	} {
		before := make([]string, len(c.conj))
		for i, s := range c.conj {
			before[i] = s.String()
		}
		// The loop of compiler.and, rendering a fused range as the
		// between pass it compiles to.
		gs := make([]string, len(c.conj))
		for i, s := range c.conj {
			gs[i] = s.String()
		}
		for _, r := range algebra.ReadConjunction(c.conj) {
			if !fusedRange(&r) {
				continue
			}
			gs[r.Conj[0]] = between(r.Col, r.Lo.Val, r.Hi.Val)
			for _, j := range r.Conj[1:] {
				gs[j] = ""
			}
		}
		gs = slices.DeleteFunc(gs, func(g string) bool { return g == "" })
		if strings.Join(gs, " AND ") != strings.Join(c.want, " AND ") {
			t.Errorf("%s: fused to %q, want %q", c.name, gs, c.want)
		}
		for i, s := range c.conj {
			if s.String() != before[i] {
				t.Errorf("%s: the input conjunct %d changed to %s", c.name, i, s.String())
			}
		}
	}
}

// BenchmarkPruneGroup times one row group's prune test: a BIGINT BETWEEN
// (its two bounds) alone, and two bounds on the BIGINT with a bound on a DOUBLE beside
// them (q6_clustered's shape), on a group that none refutes, so every
// filter is read and compared.
func BenchmarkPruneGroup(b *testing.B) {
	k, x := &algebra.ColRef{Idx: 0, K: vtypes.KindI64}, &algebra.ColRef{Idx: 1, K: vtypes.KindF64}
	grp := &storage.GroupMeta{Cols: []storage.ChunkMeta{
		{HasStats: true, MinI64: 0, MaxI64: 100}, {HasStats: true, MinF64: 1, MaxF64: 50}}}
	for _, c := range []struct {
		name    string
		filters []algebra.Scalar
	}{
		{"filters=2", []algebra.Scalar{
			&algebra.Cmp{Op: algebra.CmpGe, L: k, R: &algebra.Lit{Val: vtypes.I64Value(50)}},
			&algebra.Cmp{Op: algebra.CmpLe, L: k, R: &algebra.Lit{Val: vtypes.I64Value(60)}}}},
		{"filters=3", []algebra.Scalar{
			&algebra.Cmp{Op: algebra.CmpGe, L: k, R: &algebra.Lit{Val: vtypes.I64Value(50)}},
			&algebra.Cmp{Op: algebra.CmpLt, L: k, R: &algebra.Lit{Val: vtypes.I64Value(60)}},
			&algebra.Cmp{Op: algebra.CmpLt, L: x, R: &algebra.Lit{Val: vtypes.F64Value(24)}}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			tbl := &storage.Table{Meta: storage.TableMeta{Groups: []storage.GroupMeta{*grp}}}
			sk, _ := skipOf(tbl, []int{0, 1}, algebra.ReadConjunction(c.filters))
			for range b.N {
				if sk.Refute(grp) {
					b.Fatal("pruned a group the filters admit")
				}
			}
		})
	}
}

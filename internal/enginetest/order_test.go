package enginetest

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/bufmgr"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/matengine"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// orderedTables returns the rows of two tables stored in key order, in
// row groups of 512 (addTable): p(k, x) with keys 100..3599, each 0-3
// times, and 1 300 rows of key 500; b(k, y, s) with keys 60..1199, each 0-2
// times, and 1 100 rows of key 600. Both long runs straddle batches and
// row groups, and either one's build chain outlives an output batch. p's
// 2 700 groups make an aggregate over it flush twice.
func orderedTables() (p, b []vtypes.Row) {
	for k := int64(100); k < 3600; k++ {
		n := int(k*7) % 4
		switch k {
		case 500:
			n = 1300
		case 600:
			n = 2
		}
		for i := range n {
			p = append(p, vtypes.Row{vtypes.I64Value(k), vtypes.I64Value(int64(len(p)%5 + i%2))})
		}
	}
	for k := int64(60); k < 1200; k++ {
		n := int(k) % 3
		if k == 600 {
			n = 1100
		}
		for range n {
			b = append(b, vtypes.Row{vtypes.I64Value(k), vtypes.I64Value(int64(len(b) % 11)), vtypes.StrValue(fmt.Sprint("s", len(b)%13))})
		}
	}
	return p, b
}

var (
	pSchema = vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "x", Kind: vtypes.KindI64})
	bSchema = vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "y", Kind: vtypes.KindI64},
		vtypes.Column{Name: "s", Kind: vtypes.KindStr})
)

// orderedCatalog registers p, b and an empty e(k, y, s) in a catalog.
func orderedCatalog(t *testing.T, p, b []vtypes.Row) (cat *catalog.Catalog, ps, bs, es *algebra.ScanNode) {
	cat = catalog.New()
	return cat, addTable(t, cat, "p", pSchema, p), addTable(t, cat, "b", bSchema, b), addTable(t, cat, "e", bSchema, nil)
}

// TestOrderedOperatorsAgainstReferenceEngines: merge joins and
// aggregates over an ordered key give the reference engines' rows — every
// join type with and without BuildLeft, over the shapes where a merge
// cursor or a run boundary can slip (duplicates on both sides, runs that
// straddle batches and row groups, an empty build, a probe wholly below
// or above the build), at scan vectors of 1, 3 and 1024 rows, at
// parallelism 2, and cut over k = 1..3 shards the way the cluster runs
// them. Each plan must also take the ordered path it is meant to.
func TestOrderedOperatorsAgainstReferenceEngines(t *testing.T) {
	prows, brows := orderedTables()
	cat, p, b, e := orderedCatalog(t, prows, brows)
	k, x := colRef(0, vtypes.KindI64), colRef(1, vtypes.KindI64)
	xf := &algebra.Cast{In: x, To: vtypes.KindF64}
	keys := []algebra.Scalar{k}
	where := func(in *algebra.ScanNode, op algebra.CmpOp, v int64) algebra.Node {
		return &algebra.SelectNode{Input: in, Pred: &algebra.Cmp{Op: op, L: k, R: lit(vtypes.I64Value(v))}}
	}
	agg := func(in algebra.Node, groupBy ...algebra.Scalar) *algebra.AggNode {
		a := &algebra.AggNode{Input: in, GroupBy: groupBy, Aggs: []algebra.AggExpr{
			{Fn: algebra.AggSum, Arg: x}, {Fn: algebra.AggCountStar},
			{Fn: algebra.AggMin, Arg: x}, {Fn: algebra.AggMax, Arg: x},
			{Fn: algebra.AggSum, Arg: xf}, {Fn: algebra.AggCount, Arg: x}}}
		for i := range groupBy {
			a.Names = append(a.Names, fmt.Sprint("g", i))
		}
		a.Names = append(a.Names, "s", "n", "lo", "hi", "fs", "c")
		return a
	}
	// Q18's inner half: the keys of b with more than one row, an ordered
	// aggregate's output, as a build side.
	dupKeys := &algebra.ProjectNode{Names: []string{"k"}, Exprs: keys, Input: &algebra.SelectNode{
		Input: agg(b, k), Pred: &algebra.Cmp{Op: algebra.CmpGt, L: colRef(2, vtypes.KindI64), R: lit(vtypes.I64Value(1))}}}

	type tc struct {
		name string
		plan algebra.Node
		keys string // how the vectorized plan must resolve keys somewhere
	}
	var cases []tc
	for _, sides := range []struct {
		name        string
		left, right algebra.Node
	}{
		{"p⋈b", p, b},
		{"b⋈p", b, p},
		{"p⋈empty", p, e},
		{"empty⋈p", e, p},
		{"p below b", where(p, algebra.CmpLt, 700), where(b, algebra.CmpGe, 900)},
		{"p above b", where(p, algebra.CmpGt, 1300), b},
		{"p⋈dupkeys", p, dupKeys},
	} {
		for _, typ := range allJoinTypes {
			for _, buildLeft := range []bool{false, true} {
				if buildLeft && typ == algebra.JoinInner {
					continue
				}
				cases = append(cases, tc{fmt.Sprintf("%s %s build=left:%v", sides.name, typ, buildLeft),
					&algebra.JoinNode{Left: sides.left, Right: sides.right, LeftKeys: keys, RightKeys: keys, Type: typ, BuildLeft: buildLeft},
					"merge"})
			}
		}
	}
	// 3600 - k runs backwards over p's key range: an unordered key.
	reversed, err := algebra.NewArith(algebra.OpSub, lit(vtypes.I64Value(3600)), k)
	if err != nil {
		t.Fatal(err)
	}
	backwards := &algebra.ProjectNode{Input: p, Exprs: []algebra.Scalar{reversed, x}, Names: []string{"k", "x"}}
	cases = append(cases,
		tc{"only the probe side ordered", &algebra.JoinNode{Left: p, Right: backwards, LeftKeys: keys, RightKeys: keys}, "table"},
		tc{"only the build side ordered", &algebra.JoinNode{Left: backwards, Right: p, LeftKeys: keys, RightKeys: keys,
			Type: algebra.JoinLeftSemi, BuildLeft: true}, "table"},
		tc{"group by k", agg(p, k), "runs"},
		tc{"group by k, x", agg(p, k, x), "table"},
		tc{"group by x, k", agg(where(p, algebra.CmpGe, 400), x, k), "table"},
		tc{"group by the probe key of a merge join", agg(&algebra.JoinNode{Left: p, Right: b, LeftKeys: keys, RightKeys: keys}, k), "runs"},
		// In probe order, a build column is out of the order it had.
		tc{"group by an ordered build column", agg(&algebra.JoinNode{Left: where(p, algebra.CmpGe, 3500), Right: where(b, algebra.CmpLt, 100),
			LeftKeys: []algebra.Scalar{x}, RightKeys: []algebra.Scalar{x}}, colRef(2, vtypes.KindI64)), "table"},
	)

	fanned := 0
	for _, c := range cases {
		vec, tup, mat := runAll(t, cat, c.plan)
		expectEqual(t, c.name, vec, tup, mat)
		var sink core.HashStatsSink
		if _, err := collect(c.plan, cat, xcompile.Options{HashStats: &sink}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.ContainsFunc(sink.Snapshot(), func(h core.HashTableStat) bool { return h.Keys == c.keys }) {
			t.Fatalf("%s: keys resolved by %+v, want one by %q", c.name, sink.Snapshot(), c.keys)
		}
		for _, vecSize := range []int{1, 3, 1024} {
			for _, par := range []int{1, 2} {
				plan := c.plan
				if par > 1 {
					plan = rewriter.Parallelize(plan, cat, par)
				}
				got, err := collect(plan, cat, xcompile.Options{VecSize: vecSize})
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				expectEqual(t, fmt.Sprintf("%s, vectors of %d, parallelism %d", c.name, vecSize, par), render(got), tup, tup)
			}
		}
		for shards := 1; shards <= 3; shards++ {
			got, ok := distributed(t, c.plan, prows, brows, shards)
			if !ok {
				continue
			}
			fanned++
			expectEqual(t, fmt.Sprintf("%s over %d shards", c.name, shards), render(got), tup, tup)
		}
	}
	// Only the joins off the shard key stay on one node.
	if want := 3 * (len(cases) - 3); fanned != want {
		t.Fatalf("%d plans ran over shards, want %d", fanned, want)
	}
}

func collect(plan algebra.Node, cat *catalog.Catalog, opts xcompile.Options) ([]vtypes.Row, error) {
	op, err := xcompile.Compile(plan, cat, opts)
	if err != nil {
		return nil, err
	}
	return core.Collect(op)
}

// distributed runs plan as the cluster coordinator does over p and b
// sharded on k: rewriter.Distribute's plan, each remote leaf Split's
// below compiled over its shard's rows, which stay in key order. It
// reports false for a plan the coordinator refuses to distribute.
func distributed(t *testing.T, plan algebra.Node, prows, brows []vtypes.Row, shards int) ([]vtypes.Row, bool) {
	t.Helper()
	dist, _, err := rewriter.Distribute(plan, shards, func(string) (string, bool) { return "k", true })
	if err != nil {
		return nil, false
	}
	cats := make([]*catalog.Catalog, shards)
	for i := range cats {
		part := func(rows []vtypes.Row) (out []vtypes.Row) {
			for _, r := range rows {
				if int(r[0].I64)%shards == i {
					out = append(out, r)
				}
			}
			return out
		}
		cats[i], _, _, _ = orderedCatalog(t, part(prows), part(brows))
	}
	below, _ := rewriter.Split(plan)
	got, err := collect(dist, cats[0], xcompile.Options{Remote: func(r *algebra.RemoteNode) (core.Operator, error) {
		return xcompile.Compile(below, cats[r.Shard], xcompile.Options{})
	}})
	if err != nil {
		t.Fatal(err)
	}
	return got, true
}

// TestOrderedAggregateFlushSizes: an aggregate over an ordered key whose
// held groups differ widely from flush to flush — two keys of 1 500 rows
// each, then 1 000 keys of one row, then 2 000 keys of one to three — gives
// the reference engines' rows at scan vectors of 1, 3 and 1024 rows and at
// parallelism 1 and 2, whatever the groups each flush's output vectors
// are sized by.
func TestOrderedAggregateFlushSizes(t *testing.T) {
	var rows []vtypes.Row
	add := func(k int64, n int) {
		for i := range n {
			rows = append(rows, vtypes.Row{vtypes.I64Value(k), vtypes.I64Value(int64(len(rows)%7 + i))})
		}
	}
	add(0, 1500)
	add(1, 1500)
	for k := int64(2); k < 1002; k++ {
		add(k, 1)
	}
	for k := int64(1002); k < 3002; k++ {
		add(k, int(k%3)+1)
	}
	cat := catalog.New()
	g := addTable(t, cat, "g", pSchema, rows)
	k, x := colRef(0, vtypes.KindI64), colRef(1, vtypes.KindI64)
	plan := &algebra.AggNode{Input: g, GroupBy: []algebra.Scalar{k}, Names: []string{"k", "s", "n", "lo", "hi", "fs", "c"},
		Aggs: []algebra.AggExpr{{Fn: algebra.AggSum, Arg: x}, {Fn: algebra.AggCountStar},
			{Fn: algebra.AggMin, Arg: x}, {Fn: algebra.AggMax, Arg: x},
			{Fn: algebra.AggSum, Arg: &algebra.Cast{In: x, To: vtypes.KindF64}}, {Fn: algebra.AggCount, Arg: x}}}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "ordered aggregate", vec, tup, mat)
	if len(tup) != 3002 {
		t.Fatalf("%d groups, want 3 002", len(tup))
	}
	var sink core.HashStatsSink
	if _, err := collect(plan, cat, xcompile.Options{HashStats: &sink}); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(sink.Snapshot(), func(h core.HashTableStat) bool { return h.Keys == "runs" }) {
		t.Fatalf("keys resolved by %+v, want the ordered path's runs", sink.Snapshot())
	}
	for _, vecSize := range []int{1, 3, 1024} {
		for _, par := range []int{1, 2} {
			p := algebra.Node(plan)
			if par > 1 {
				p = rewriter.Parallelize(p, cat, par)
			}
			got, err := collect(p, cat, xcompile.Options{VecSize: vecSize})
			if err != nil {
				t.Fatal(err)
			}
			expectEqual(t, fmt.Sprintf("vectors of %d, parallelism %d", vecSize, par), render(got), tup, tup)
		}
	}
}

// TestFalseOrderPromiseFails: in table d, k decreases row by row while
// its one chunk is marked Sorted, so Table.Ordered promises an order the
// data breaks. A GROUP BY k and a self-join on k, planned from SQL and
// compiled by xcompile onto the ordered paths (keyTable.runs), must fail
// with storage.ErrUnordered and return no row, and so must a join of d
// with s, a smaller table whose k really ascends, and the two filters on
// k that the search answers from the flag. Decoding d's chunk refuses it,
// through a buffer pool too, and the pool caches no chunk that failed, so
// a second run through it fails the same way. In table x each of two
// groups is truly sorted, but group 1's keys start below group 0's last
// while its minimum was raised to claim they do not: the scanner's check
// where the groups meet must refuse it, whatever the vector size.
func TestFalseOrderPromiseFails(t *testing.T) {
	b := storage.NewBuilder("d", pSchema, 4096)
	for i := range int64(2000) {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(2000 - i), vtypes.I64Value(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Meta.Groups[0].Cols[0].Sorted = true
	if !tbl.Ordered(0) {
		t.Fatal("d must promise k in order")
	}
	sb := storage.NewBuilder("s", pSchema, 4096)
	for i := range int64(500) {
		if err := sb.AppendRow(vtypes.Row{vtypes.I64Value(4 * i), vtypes.I64Value(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	sorted, err := sb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !sorted.Ordered(0) {
		t.Fatal("s must keep k in order")
	}
	xb := storage.NewBuilder("x", pSchema, 1000)
	for i := range int64(2000) {
		if err := xb.AppendRow(vtypes.Row{vtypes.I64Value(i%1000 + i/1000*10), vtypes.I64Value(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	overlap, err := xb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	overlap.Meta.Groups[1].Cols[0].MinI64 = 999
	if !overlap.Ordered(0) {
		t.Fatal("x must promise k in order")
	}
	cat := catalog.New()
	cat.Put(tbl)
	cat.Put(sorted)
	cat.Put(overlap)
	refused := func(q string, opts xcompile.Options) {
		t.Helper()
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := collect(plan, cat, opts)
		if err == nil || !strings.Contains(err.Error(), "promised in key order") || rows != nil {
			t.Errorf("%s (vectors of %d): %d rows, error %v; want no row and the broken promise", q, opts.VecSize, len(rows), err)
		}
	}
	for _, q := range []string{
		`SELECT k, COUNT(*) n FROM d GROUP BY k`,
		`SELECT a.k, b.x FROM d a JOIN d b ON a.k = b.k`,
		`SELECT a.k, b.x FROM d a JOIN s b ON a.k = b.k`,
	} {
		refused(q, xcompile.Options{})
	}
	pool := bufmgr.New(0)
	for run := range 2 {
		for _, q := range []string{
			`SELECT k FROM d WHERE k BETWEEN 500 AND 600`,
			`SELECT COUNT(*) FROM d WHERE k >= 1990`,
		} {
			refused(q, xcompile.Options{})
			refused(q, xcompile.Options{Fetch: pool})
		}
		if pool.Contains(tbl, 0, 0) {
			t.Fatalf("run %d: the pool cached the chunk that broke its promise", run)
		}
	}
	for _, vecSize := range []int{1, 3, 1024} {
		for _, q := range []string{
			`SELECT k, COUNT(*) n FROM x GROUP BY k`,
			`SELECT a.k, b.x FROM x a JOIN x b ON a.k = b.k`,
		} {
			refused(q, xcompile.Options{VecSize: vecSize})
		}
	}
}

// TestLyingStatisticsFail: a BIGINT column that is not Ordered, whose
// group 1 claims a MaxI64 below a value it holds, fails every query that
// reads the group with storage.ErrStatistics, on every engine and through
// the pool as well as direct reads, instead of answering from a chunk
// whose range its width and its pruning were chosen by.
func TestLyingStatisticsFail(t *testing.T) {
	b := storage.NewBuilder("l", pSchema, 1000)
	for i := range int64(3000) {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(i % 1000 * 7 % 1000), vtypes.I64Value(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Meta.Groups[1].Cols[0].MaxI64 = 500
	if tbl.Ordered(0) {
		t.Fatal("l must not promise k in order")
	}
	cat := catalog.New()
	cat.Put(tbl)
	for _, q := range []string{
		`SELECT SUM(k) FROM l`,
		`SELECT x, MAX(k) m FROM l GROUP BY x`,
	} {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
		if err != nil {
			t.Fatal(err)
		}
		engines := map[string]func() ([]vtypes.Row, error){
			"vectorized": func() ([]vtypes.Row, error) { return collect(plan, cat, xcompile.Options{}) },
			"pool":       func() ([]vtypes.Row, error) { return collect(plan, cat, xcompile.Options{Fetch: bufmgr.New(0)}) },
			"tuple":      func() ([]vtypes.Row, error) { return tupleengine.Run(plan, cat) },
			"mat":        func() ([]vtypes.Row, error) { return matengine.Run(plan, cat) },
		}
		for name, run := range engines {
			if rows, err := run(); !errors.Is(err, storage.ErrStatistics) || rows != nil {
				t.Errorf("%s on %s: %d rows, error %v; want ErrStatistics", q, name, len(rows), err)
			}
		}
	}
}

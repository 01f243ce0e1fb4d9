package sql

import (
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/storage"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// planFixture builds a catalog with two joinable tables:
// t(a BIGINT, b DOUBLE, c VARCHAR) and u(k BIGINT, v DOUBLE).
func planFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tb := storage.NewBuilder("t", vtypes.NewSchema(
		vtypes.Column{Name: "a", Kind: vtypes.KindI64},
		vtypes.Column{Name: "b", Kind: vtypes.KindF64},
		vtypes.Column{Name: "c", Kind: vtypes.KindStr},
	), 0)
	for i := 0; i < 10; i++ {
		tag := "odd"
		if i%2 == 0 {
			tag = "even"
		}
		if err := tb.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)), vtypes.F64Value(float64(i) * 1.5), vtypes.StrValue(tag),
		}); err != nil {
			t.Fatal(err)
		}
	}
	tt, err := tb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat.Put(tt)

	ub := storage.NewBuilder("u", vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindF64},
	), 0)
	for i := 0; i < 5; i++ { // only keys 0..4 join
		if err := ub.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)), vtypes.F64Value(float64(10 * i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ut, err := ub.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat.Put(ut)
	return cat
}

// planAndRun plans a SELECT and executes it on the tuple engine.
func planAndRun(t *testing.T, cat *catalog.Catalog, q string) []vtypes.Row {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	p := &Planner{Cat: cat}
	plan, err := p.PlanQuery(stmt.AST)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	rows, err := tupleengine.Run(plan, cat)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return rows
}

// Arithmetic over aggregates in the select list (the Q14 shape): the
// ratio of two sums, with the repeated aggregate computed once.
func TestPlanExpressionOverAggregates(t *testing.T) {
	cat := planFixture(t)
	rows := planAndRun(t, cat, `SELECT 100.0 * SUM(b) / (SUM(b) + COUNT(*)) AS pct FROM t`)
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	// sum(b) = 1.5 * 45 = 67.5; 100*67.5/(67.5+10) = 87.0967...
	got := rows[0][0].F64
	want := 100.0 * 67.5 / 77.5
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("pct = %v, want %v", got, want)
	}
}

// A CASE inside an aggregate with an int literal arm beside a float arm
// widens instead of erroring.
func TestPlanCaseArmWidening(t *testing.T) {
	cat := planFixture(t)
	rows := planAndRun(t, cat,
		`SELECT SUM(CASE WHEN c = 'even' THEN b ELSE 0 END) s FROM t`)
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	// even rows: 0,2,4,6,8 → b sums to 1.5*(0+2+4+6+8) = 30
	if got := rows[0][0].F64; got != 30 {
		t.Fatalf("s = %v, want 30", got)
	}
}

// HAVING referencing bare aggregates and select aliases.
func TestPlanHavingAggregatesAndAliases(t *testing.T) {
	cat := planFixture(t)
	rows := planAndRun(t, cat,
		`SELECT c, SUM(b) total FROM t GROUP BY c HAVING SUM(b) > 29 AND total < 35 ORDER BY c`)
	if len(rows) != 1 || rows[0][0].Str != "even" {
		t.Fatalf("rows: %v", rows)
	}
	// HAVING may use an aggregate the select list drops.
	rows = planAndRun(t, cat,
		`SELECT c FROM t GROUP BY c HAVING COUNT(*) = 5 AND MIN(a) = 1`)
	if len(rows) != 1 || rows[0][0].Str != "odd" {
		t.Fatalf("rows: %v", rows)
	}
}

// WHERE conjuncts that reference a table joined later must not be pushed
// into the first table's scan.
func TestPlanJoinPredicatePlacement(t *testing.T) {
	cat := planFixture(t)
	rows := planAndRun(t, cat,
		`SELECT a, v FROM t JOIN u ON a = k WHERE v >= 20 AND b > 0`)
	if len(rows) != 3 { // k in {2,3,4}: v=20,30,40 and b>0
		t.Fatalf("rows: %v", rows)
	}
	// Right-side-only predicate on a semi join pushes into the build side
	// (its columns are out of scope above the join).
	rows = planAndRun(t, cat, `SELECT a FROM t SEMI JOIN u ON a = k WHERE v >= 30`)
	if len(rows) != 2 { // keys 3,4
		t.Fatalf("semi rows: %v", rows)
	}
}

// HAVING without any aggregation is rejected, not silently dropped.
func TestPlanHavingWithoutAggregates(t *testing.T) {
	cat := planFixture(t)
	stmt, err := Parse(`SELECT a FROM t HAVING a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	p := &Planner{Cat: cat}
	if _, err := p.PlanQuery(stmt.AST); err == nil ||
		!strings.Contains(err.Error(), "HAVING") {
		t.Fatalf("want HAVING error, got %v", err)
	}
}

// A self-referential select alias must error, not recurse forever.
func TestPlanAliasSelfReference(t *testing.T) {
	cat := planFixture(t)
	for _, q := range []string{
		`SELECT SUM(b) s, a + 1 AS a FROM t GROUP BY c`,
		`SELECT n + 1 AS n FROM t GROUP BY c HAVING n > 0`,
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p := &Planner{Cat: cat}
		if _, err := p.PlanQuery(stmt.AST); err == nil {
			t.Fatalf("plan %q: want error, got nil", q)
		}
	}
}

// BETWEEN bounds and IN members may be aggregates or group columns in
// HAVING (decomposed into comparisons), not just literals.
func TestPlanNonLiteralBoundsOverAggregates(t *testing.T) {
	cat := planFixture(t)
	rows := planAndRun(t, cat,
		`SELECT c FROM t GROUP BY c HAVING COUNT(*) BETWEEN 1 AND MAX(a)`)
	if len(rows) != 2 { // both groups: count 5 ≤ max(a) (8 and 9)
		t.Fatalf("between rows: %v", rows)
	}
	rows = planAndRun(t, cat,
		`SELECT c, MIN(a) m FROM t GROUP BY c HAVING MIN(a) IN (1, COUNT(*) - 5)`)
	if len(rows) != 2 { // even: min 0 = 5-5; odd: min 1
		t.Fatalf("in rows: %v", rows)
	}
}

// A select item that is neither grouped nor aggregated errors clearly.
func TestPlanUngroupedColumnRejected(t *testing.T) {
	cat := planFixture(t)
	stmt, err := Parse(`SELECT a, SUM(b) FROM t GROUP BY c`)
	if err != nil {
		t.Fatal(err)
	}
	p := &Planner{Cat: cat}
	if _, err := p.PlanQuery(stmt.AST); err == nil {
		t.Fatal("ungrouped select item must error")
	}
}

// scanFilter is the Select directly over a scan — the scan's filter —
// with its conjuncts split into those algebra.ReadInterval reads, which
// the scan's Skip reads, and the residual ones, each rendered.
type scanFilter struct{ read, residual []string }

// scanFilters returns the filter of each scan in n that has one, by
// table.
func scanFilters(n algebra.Node) map[string]scanFilter {
	out := map[string]scanFilter{}
	var walk func(algebra.Node)
	walk = func(n algebra.Node) {
		if sel, ok := n.(*algebra.SelectNode); ok {
			if scan, ok := sel.Input.(*algebra.ScanNode); ok {
				conj := []algebra.Scalar{sel.Pred}
				if and, ok := sel.Pred.(*algebra.And); ok {
					conj = and.Preds
				}
				var f scanFilter
				for _, c := range conj {
					if _, ok := algebra.ReadInterval(c); ok {
						f.read = append(f.read, c.String())
					} else {
						f.residual = append(f.residual, c.String())
					}
				}
				out[scan.Table] = f
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// A single-table WHERE is one Select directly over its scan, the scan's
// filter: the scan's Skip reads its sargable conjuncts (parameter slots
// included), not the residual ones, and the tuple engine sees every
// predicate.
func TestPlanScanFilterExtraction(t *testing.T) {
	cat := planFixture(t)
	stmt, err := Parse(`SELECT a FROM t WHERE a BETWEEN ? AND ? AND b < 100.0 AND a + 1 > 2`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams != 2 {
		t.Fatalf("params: %d", stmt.NumParams)
	}
	p := &Planner{Cat: cat}
	plan, err := p.PlanQuery(stmt.AST)
	if err != nil {
		t.Fatal(err)
	}
	f := scanFilters(plan)["t"]
	if fmt.Sprint(f.read) != "[(#0 >= $1) (#0 <= $2) (#1 < 100)]" {
		t.Fatalf("want the Skip to read two param bounds + b<100, got %q\n%s", f.read, algebra.Explain(plan))
	}
	if fmt.Sprint(f.residual) != "[((#0 + 1) > 2)]" {
		t.Fatalf("arithmetic conjunct must stay residual, got %q", f.residual)
	}
	// The template binds and runs: filters' Params become literals.
	bound, err := algebra.BindParams(plan, []vtypes.Value{vtypes.I64Value(2), vtypes.I64Value(6)})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tupleengine.Run(bound, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // a in 2..6
		t.Fatalf("bound filtered rows: %d, want 5", len(rows))
	}
	// EXPLAIN renders the filter as a Select, unbound slots as $N.
	text := algebra.Explain(plan)
	if !strings.Contains(text, "Select (") || !strings.Contains(text, "$1") {
		t.Fatalf("EXPLAIN missing filters:\n%s", text)
	}
}

// Simplification runs when the plan is finished, so how a predicate is
// spelled does not decide whether the scan's Skip reads it: a negated
// comparison and a doubly negated one finish as the plan of the plain
// comparison (one Select over the scan, whose one conjunct the Skip
// reads), a conjunct that folds to true leaves nothing behind, and a
// UNION ALL branch is treated like any other block. All three engines
// return the plain form's rows.
func TestPlanSimplifiesBeforePushdown(t *testing.T) {
	cat := planFixture(t)
	const plain = `SELECT c FROM t WHERE a >= 4`
	want := algebra.Explain(planText(t, cat, plain))
	if f := scanFilters(planText(t, cat, plain))["t"]; fmt.Sprint(f.read) != "[(#0 >= 4)]" || f.residual != nil || strings.Count(want, "Select") != 1 {
		t.Fatalf("plain comparison is not one filter the Skip reads:\n%s", want)
	}
	wantRows := runOn(t, cat, plain, "tuple", planText(t, cat, plain))
	if strings.Count(wantRows, "\n") != 5 { // a in 4..9
		t.Fatalf("plain comparison rows:\n%s", wantRows)
	}
	for _, q := range []string{
		`SELECT c FROM t WHERE NOT (a < 4)`,
		`SELECT c FROM t WHERE NOT (NOT (a >= 4))`,
		`SELECT c FROM t WHERE a >= 4 AND 1 = 1`,
	} {
		plan := planText(t, cat, q)
		if got := algebra.Explain(plan); got != want {
			t.Errorf("%s plans as\n%swant the plan of %s\n%s", q, got, plain, want)
		}
		for _, engine := range []string{"vectorized", "tuple", "materialized"} {
			if got := runOn(t, cat, q, engine, plan); got != wantRows {
				t.Errorf("%s on %s\ngot\n%s\nwant\n%s", q, engine, got, wantRows)
			}
		}
	}
	if out := algebra.Explain(planText(t, cat, `SELECT a FROM t WHERE 1 = 1`)); strings.Contains(out, "Select") {
		t.Errorf("WHERE 1 = 1 leaves a Select:\n%s", out)
	}
	union := planText(t, cat, `SELECT a FROM t WHERE NOT (a < 4) UNION ALL SELECT k FROM u WHERE NOT (k <> 2)`)
	if f := scanFilters(union); fmt.Sprint(f) != "map[t:{[(#0 >= 4)] []} u:{[(#0 = 2)] []}]" || strings.Count(algebra.Explain(union), "Select") != 2 {
		t.Errorf("UNION ALL branches keep unsimplified predicates:\n%s", algebra.Explain(union))
	}
}

// The read side of a write is an ordinary plan: a row-id scan of just
// the referenced columns, its filter the WHERE, whose sargable conjunct
// the scan's Skip reads, and one Project computing $rid plus the SET
// values.
func TestPlanDML(t *testing.T) {
	cat := planFixture(t)
	stmt, err := Parse(`UPDATE t SET b = a * 2 WHERE a >= ? AND c LIKE 'od%'`)
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.AST.(*UpdateStmt)
	p := &Planner{Cat: cat}
	plan, targets, err := p.PlanDML(up.Table, up.Where, up.SetCols, up.SetExprs)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 || targets[0] != 1 {
		t.Fatalf("targets: %v, want [1] (column b)", targets)
	}
	want := "Project [$rid b]\n  Select ((#0 >= $1) and (#1 like \"od%\"))\n    Scan t cols=[0 2] rowid\n"
	if got := algebra.Explain(plan); got != want {
		t.Fatalf("plan:\n%swant:\n%s", got, want)
	}
	if f := scanFilters(plan)["t"]; fmt.Sprint(f.read) != "[(#0 >= $1)]" || fmt.Sprint(f.residual) != `[(#1 like "od%")]` {
		t.Fatalf("the Skip reads %q and not %q, want the bound on a only", f.read, f.residual)
	}
	// Binding clones the filter; its scan is still a row-id scan.
	bound, err := algebra.BindParams(plan, []vtypes.Value{vtypes.I64Value(4)})
	if err != nil {
		t.Fatal(err)
	}
	if got := algebra.Explain(bound); !strings.Contains(got, "(#0 >= 4)") || !strings.Contains(got, "Scan t cols=[0 2] rowid\n") {
		t.Fatalf("bound plan lost the row-id flag:\n%s", got)
	}
	// The reference engines do not implement row ids and must say so.
	if _, err := tupleengine.Run(bound, cat); err == nil {
		t.Fatal("tupleengine must reject a row-id scan")
	}

	// DELETE without WHERE reads no column at all.
	plan, targets, err = p.PlanDML("t", nil, nil, nil)
	if err != nil || targets != nil {
		t.Fatalf("delete plan: targets=%v err=%v", targets, err)
	}
	if got := algebra.Explain(plan); got != "Project [$rid]\n  Scan t cols=[] rowid\n" {
		t.Fatalf("delete plan:\n%s", got)
	}
}

// INSERT VALUES takes literal-only arithmetic: the parser reads `-5` as
// 0 - 5, so without the fold no negative number could be inserted.
func TestLowerLiteralFoldsArithmetic(t *testing.T) {
	st, err := Parse(`INSERT INTO t VALUES (-5, -2.5, 3 - 10, 2 * 3 + 1, DATE '2011-01-01' + 1, 6 / 2, 1 + NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	row := st.AST.(*InsertStmt).Rows[0]
	p := &Planner{}
	for i, c := range []struct {
		kind vtypes.Kind
		want vtypes.Value
	}{
		{vtypes.KindI64, vtypes.I64Value(-5)},
		{vtypes.KindF64, vtypes.F64Value(-2.5)},
		{vtypes.KindI64, vtypes.I64Value(-7)},
		{vtypes.KindF64, vtypes.F64Value(7)},
		{vtypes.KindDate, vtypes.DateValue(vtypes.MustParseDate("2011-01-02"))},
	} {
		got, err := p.LowerLiteral(row[i], c.kind)
		if err != nil || got != c.want {
			t.Errorf("value %d: got %+v, %v; want %+v", i, got, err, c.want)
		}
	}
	for _, e := range row[5:] { // division and NULL operands do not fold
		if _, err := p.LowerLiteral(e, vtypes.KindI64); err == nil {
			t.Errorf("%T folded; want \"literal required\"", e)
		}
	}
}

// TestAggregatesSkipNullArguments: SUM, AVG, MIN, MAX and COUNT(col) pass
// over rows whose argument is NULL — a nullable column, or the
// null-extended side of an outer join, hashed on either side — and
// COUNT(*) does not, on all three engines, whole and cut into partial
// and final halves (where AVG(x) travels as SUM(x) and COUNT(x)), and
// under the parallel rewrite. Every group here holds a non-NULL value:
// the all-NULL group's NULL result is not implemented.
func TestAggregatesSkipNullArguments(t *testing.T) {
	cat := pruneFixture(t)
	for _, tc := range []struct{ q, shape string }{
		// cust.tier: NULL where cid%5 == 0, else cid%3.
		{`SELECT COUNT(*) m, COUNT(tier) n, SUM(tier) s, AVG(tier) a, MIN(tier) lo, MAX(tier) hi FROM cust`, ""},
		// Orders of customers that do not exist carry a NULL tier.
		{`SELECT o.note, COUNT(*) m, COUNT(c.tier) n, AVG(c.tier) a, MIN(c.tier) lo, SUM(c.tier) s
		  FROM ord o LEFT JOIN cust c ON o.cust = c.cid GROUP BY o.note`, "HashJoin leftouter est="},
		// Customers without an order carry a NULL order; the few
		// customers are the hashed side.
		{`SELECT c.region, COUNT(*) m, COUNT(o.id) n, AVG(o.total) a, MIN(o.total) lo, MAX(o.id) hi
		  FROM cust c LEFT JOIN ord o ON c.cid = o.cust GROUP BY c.region`, "HashJoin leftouter build=left"},
	} {
		st, err := Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := (&Planner{Cat: cat}).PlanQuery(st.AST)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(algebra.Explain(plan), tc.shape) {
			t.Fatalf("%s: want %q in\n%s", tc.q, tc.shape, algebra.Explain(plan))
		}
		want := runOn(t, cat, tc.q, "tuple", plan)
		below, above := rewriter.Split(plan)
		for _, p := range []algebra.Node{plan, above(below), rewriter.Parallelize(plan, cat, 2)} {
			for _, engine := range []string{"vectorized", "tuple", "materialized"} {
				if got := runOn(t, cat, tc.q, engine, p); got != want {
					t.Errorf("%s on %s\n%sgot\n%s\nwant\n%s", tc.q, engine, algebra.Explain(p), got, want)
				}
			}
		}
	}

	// The engines agreeing is not the semantics: recompute the first
	// statement from the rows of cust.
	rows, err := tupleengine.Run(&algebra.ScanNode{Table: "cust", Cols: []int{2}, Out: vtypes.NewSchema(
		vtypes.Column{Name: "tier", Kind: vtypes.KindI64, Nullable: true})}, cat)
	if err != nil {
		t.Fatal(err)
	}
	var m, n, s int64
	lo, hi := int64(1<<62), int64(-1)
	for _, r := range rows {
		m++
		if !r[0].Null {
			n, s, lo, hi = n+1, s+r[0].I64, min(lo, r[0].I64), max(hi, r[0].I64)
		}
	}
	if n == 0 || n == m {
		t.Fatalf("fixture: %d of %d tiers are NULL", m-n, m)
	}
	want := fmt.Sprintf("%d|%d|%d|%.6f|%d|%d", m, n, s, float64(s)/float64(n), lo, hi)
	st, err := Parse(`SELECT COUNT(*) m, COUNT(tier) n, SUM(tier) s, AVG(tier) a, MIN(tier) lo, MAX(tier) hi FROM cust`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (&Planner{Cat: cat}).PlanQuery(st.AST)
	if err != nil {
		t.Fatal(err)
	}
	if got := runOn(t, cat, "cust tiers", "vectorized", plan); got != want {
		t.Fatalf("aggregates over a nullable column: got %s, want %s", got, want)
	}
}

// TestPlanAvgIsSumOverCount: no aggregate below the planner is AVG.
// AVG(x) reads SUM(x) and COUNT(x) — COUNT(x), not COUNT(*), as AVG
// skips the rows where x is NULL — and its quotient sits in the
// projection the statement has anyway. A DOUBLE x is summed as it is, so
// AVG(b) reads the statement's own SUM(b); a BIGINT is summed cast to
// DOUBLE, and AVG(a) shares its count with COUNT(a).
func TestPlanAvgIsSumOverCount(t *testing.T) {
	st, err := Parse(`SELECT SUM(b) s, AVG(b) ab, AVG(a) aa, COUNT(a) n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (&Planner{Cat: planFixture(t)}).PlanQuery(st.AST)
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := plan.(*algebra.ProjectNode)
	if !ok {
		t.Fatalf("want a Project over the aggregate:\n%s", algebra.Explain(plan))
	}
	agg, ok := proj.Input.(*algebra.AggNode)
	if !ok {
		t.Fatalf("want the aggregate under the Project:\n%s", algebra.Explain(plan))
	}
	if got, want := fmt.Sprint(agg.Aggs), "[sum(#1) count(#1) sum(cast(#0 as DOUBLE)) count(#0)]"; got != want {
		t.Errorf("aggregates %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(proj.Exprs), "[#0 (#0 / #1) (#2 / #3) #3]"; got != want {
		t.Errorf("projection %s, want %s", got, want)
	}
	for i, k := range []vtypes.Kind{vtypes.KindF64, vtypes.KindF64, vtypes.KindF64, vtypes.KindI64} {
		if got := plan.Schema().Col(i).Kind; got != k {
			t.Errorf("column %d is %v, want %v", i, got, k)
		}
	}
}

// avgFixture builds m(k BIGINT, g VARCHAR, i BIGINT, d DOUBLE,
// n BIGINT NULL) in row groups of 4, holding the rows below whose
// k%shards is shard, and mr, a copy of all of them whatever the shard,
// for a cluster to replicate:
//
//	k   0     1    2    3     4    5    6     7
//	g   lo    lo   lo   lo    hi   hi   hi    hi
//	i   0     1    2    0     1    2    0     1
//	d   0     0.5  1    1.5   2    2.5  3     3.5
//	n   NULL  1    2    NULL  4    5    NULL  7
func avgFixture(t *testing.T, shard, shards int) *catalog.Catalog {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "g", Kind: vtypes.KindStr},
		vtypes.Column{Name: "i", Kind: vtypes.KindI64},
		vtypes.Column{Name: "d", Kind: vtypes.KindF64},
		vtypes.Column{Name: "n", Kind: vtypes.KindI64, Nullable: true})
	cat := catalog.New()
	for _, name := range []string{"m", "mr"} {
		b := storage.NewBuilder(name, schema, 4)
		for k := range int64(8) {
			if name == "m" && int(k)%shards != shard {
				continue
			}
			n := vtypes.I64Value(k)
			if k%3 == 0 {
				n = vtypes.NullValue(vtypes.KindI64)
			}
			row := vtypes.Row{vtypes.I64Value(k), vtypes.StrValue([]string{"lo", "hi"}[k/4]),
				vtypes.I64Value(k % 3), vtypes.F64Value(float64(k) / 2), n}
			if err := b.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		tbl, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		cat.Put(tbl)
	}
	return cat
}

// TestAvgAnswers: AVG's answers, worked out by hand from avgFixture's
// rows rather than taken from an engine — an average of integers that is
// not one, of DOUBLEs, of a nullable column (whose NULLs count for
// neither the sum nor the count), beside SUM and COUNT of its argument,
// in HAVING, in ORDER BY and in a scalar subquery — on the three engines,
// at parallelism 1 and 2, and distributed over two shards of m. No group
// here is empty or all NULL: AVG's answer there waits on ROADMAP item
// 1(b)'s NULL rule.
func TestAvgAnswers(t *testing.T) {
	cat := avgFixture(t, 0, 1)
	shards := []*catalog.Catalog{avgFixture(t, 0, 2), avgFixture(t, 1, 2)}
	for _, tc := range []struct{ q, want string }{
		// i: 7/8; d: 14/8; n: 19/5, not 19/8.
		{`SELECT AVG(i) ai, AVG(d) ad, AVG(n) an FROM m`, "0.875000|1.750000|3.800000"},
		{`SELECT g, AVG(n) a, SUM(n) s, COUNT(n) c, COUNT(*) r FROM m GROUP BY g`, "hi|5.333333|16|3|4\nlo|1.500000|3|2|4"},
		{`SELECT g, AVG(i) a FROM m GROUP BY g HAVING AVG(n) > 4.5`, "hi|1.000000"},
		{`SELECT g FROM m GROUP BY g ORDER BY AVG(n) LIMIT 1`, "lo"},
		// k < 3.8.
		{`SELECT COUNT(*) c FROM m WHERE k < (SELECT AVG(n) FROM mr)`, "4"},
	} {
		st, err := Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := (&Planner{Cat: cat}).PlanQuery(st.AST)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		for _, p := range []algebra.Node{plan, rewriter.Parallelize(plan, cat, 2)} {
			for _, engine := range []string{"vectorized", "tuple", "materialized"} {
				if got := runOn(t, cat, tc.q, engine, p); got != tc.want {
					t.Errorf("%s on %s\n%sgot\n%s\nwant\n%s", tc.q, engine, algebra.Explain(p), got, tc.want)
				}
			}
		}
		dist, sharded, err := rewriter.Distribute(plan, len(shards), func(table string) (string, bool) { return "k", table == "m" })
		if err != nil || !sharded {
			t.Fatalf("%s: not distributed (%v)", tc.q, err)
		}
		below, _ := rewriter.Split(plan)
		op, err := xcompile.Compile(dist, cat, xcompile.Options{Remote: func(r *algebra.RemoteNode) (core.Operator, error) {
			return xcompile.Compile(below, shards[r.Shard], xcompile.Options{})
		}})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := core.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRows(rows); got != tc.want {
			t.Errorf("%s over %d shards\n%sgot\n%s\nwant\n%s", tc.q, len(shards), algebra.Explain(dist), got, tc.want)
		}
	}
}

// planOf plans a statement over cat.
func planOf(t *testing.T, cat *catalog.Catalog, q string) algebra.Node {
	t.Helper()
	st, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	plan, err := (&Planner{Cat: cat}).PlanQuery(st.AST)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return plan
}

// aggOf returns the aggregate under a plan's top projection.
func aggOf(t *testing.T, plan algebra.Node) *algebra.AggNode {
	t.Helper()
	if proj, ok := plan.(*algebra.ProjectNode); ok {
		if agg, ok := proj.Input.(*algebra.AggNode); ok {
			return agg
		}
	}
	t.Fatalf("want Project over Aggregate:\n%s", algebra.Explain(plan))
	return nil
}

// TestPlanHoistsRepeatedArguments: a subtree that several aggregate
// arguments repeat, whole or as a part, is computed once, as a column of
// a Project under the aggregate that every one of them reads; a subtree
// holding a parameter is left where it is. The answers are those of the
// arguments computed inline, on all three engines.
func TestPlanHoistsRepeatedArguments(t *testing.T) {
	cat := planFixture(t)
	q := `SELECT SUM(b*2) s, MAX(b*2) m, SUM(b*2+1) t FROM t`
	plan := planOf(t, cat, q)
	agg := aggOf(t, plan)
	proj, ok := agg.Input.(*algebra.ProjectNode)
	if !ok {
		t.Fatalf("no Project under the aggregate:\n%s", algebra.Explain(plan))
	}
	if got, want := fmt.Sprint(proj.Exprs), "[(#0 * 2)]"; got != want { // no aggregate reads b alone
		t.Errorf("the Project computes %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(agg.Aggs), "[sum(#0) max(#0) sum((#0 + 1))]"; got != want {
		t.Errorf("aggregates %s, want %s", got, want)
	}
	// b = 1.5 i for i in 0..9.
	for _, engine := range []string{"vectorized", "tuple", "materialized"} {
		if got, want := runOn(t, cat, q, engine, plan), "135.000000|27.000000|145.000000"; got != want {
			t.Errorf("%s on %s: %s, want %s", q, engine, got, want)
		}
	}

	// The repeated SUM is one aggregate; the product stays in each.
	q = `SELECT SUM(b*$1) s, MAX(b*$1) m, SUM(b*$1) s2 FROM t`
	plan = planOf(t, cat, q)
	if agg := aggOf(t, plan); fmt.Sprint(agg.Aggs) != "[sum((#0 * $1)) max((#0 * $1))]" {
		t.Errorf("%s: aggregates %v, want the parameter's product in each of two\n%s", q, agg.Aggs, algebra.Explain(plan))
	}
	bound, err := algebra.BindParams(plan, []vtypes.Value{vtypes.F64Value(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runOn(t, cat, q, "vectorized", bound), "135.000000|27.000000|135.000000"; got != want {
		t.Errorf("%s with $1 = 2: %s, want %s", q, got, want)
	}
}

// TestPlanParamsMatchAsOneValue: every occurrence of a parameter binds
// one value, so an expression holding it matches its GROUP BY key in the
// select list and HAVING, and an aggregate over it repeated in HAVING is
// the select list's. The bound plans answer alike on all three engines.
func TestPlanParamsMatchAsOneValue(t *testing.T) {
	cat := planFixture(t)
	for _, tc := range []struct {
		q, aggs string
		arg     vtypes.Value
		want    string
	}{
		{`SELECT a + $1 AS x, COUNT(*) n FROM t WHERE a < 3 GROUP BY a + $1 ORDER BY x`,
			"[count(*)]", vtypes.I64Value(10), "10|1\n11|1\n12|1"},
		{`SELECT COUNT(*) n FROM t GROUP BY a + $1 HAVING a + $1 > 8`,
			"[count(*)]", vtypes.I64Value(1), "1\n1"},
		{`SELECT SUM(b*$1) s FROM t HAVING SUM(b*$1) > 0`,
			"[sum((#0 * $1))]", vtypes.F64Value(2), "135.000000"},
	} {
		plan := planOf(t, cat, tc.q)
		var agg *algebra.AggNode
		for n := plan; agg == nil && len(n.Children()) > 0; n = n.Children()[0] {
			agg, _ = n.(*algebra.AggNode)
		}
		if agg == nil || fmt.Sprint(agg.Aggs) != tc.aggs {
			t.Errorf("%s: want aggregates %s\n%s", tc.q, tc.aggs, algebra.Explain(plan))
		}
		bound, err := algebra.BindParams(plan, []vtypes.Value{tc.arg})
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{"vectorized", "tuple", "materialized"} {
			if got := runOn(t, cat, tc.q, engine, bound); got != tc.want {
				t.Errorf("%s on %s: %s, want %s", tc.q, engine, got, tc.want)
			}
		}
	}
}

// TestPlanGroupByKeysBySpelling: a select item, HAVING or ORDER BY term
// matches a GROUP BY key by what it computes, not by how it is written, so
// a key qualified in one place and bare in the other is one key, on all
// three engines.
func TestPlanGroupByKeysBySpelling(t *testing.T) {
	cat := planFixture(t)
	// b = 1.5 i: even i sum to 30, odd i to 37.5.
	want := "even|30.000000\nodd|37.500000"
	for _, q := range []string{
		`SELECT c, SUM(b) s FROM t GROUP BY c`,
		`SELECT t.c, SUM(b) s FROM t GROUP BY c`,
		`SELECT c, SUM(b) s FROM t GROUP BY t.c`,
		`SELECT x.c, SUM(x.b) s FROM t x GROUP BY c ORDER BY x.c`,
		`SELECT c, SUM(b) s FROM t GROUP BY t.c HAVING t.c <> 'none' ORDER BY t.c`,
	} {
		plan := planOf(t, cat, q)
		for _, engine := range []string{"vectorized", "tuple", "materialized"} {
			if got := runOn(t, cat, q, engine, plan); got != want {
				t.Errorf("%s on %s: %s, want %s", q, engine, got, want)
			}
		}
	}
}

// TestPlanOrderByPosition: an unsigned integer in ORDER BY is the 1-based
// position of a select item (SQL-92, PostgreSQL), in a plain SELECT, under
// aggregation and over a set operation; a position outside the select list
// fails to plan.
func TestPlanOrderByPosition(t *testing.T) {
	cat := planFixture(t)
	for _, tc := range []struct{ q, want string }{
		{`SELECT a, SUM(b) s FROM t GROUP BY a ORDER BY 1 DESC LIMIT 2`, "9 8"},
		{`SELECT a, SUM(b) s FROM t GROUP BY a ORDER BY 2 LIMIT 2`, "0 1"},
		{`SELECT c, a FROM t ORDER BY 2 DESC LIMIT 2`, "odd even"},
		{`SELECT * FROM t ORDER BY 1 DESC LIMIT 2`, "9 8"},
		{`SELECT a FROM t UNION ALL SELECT k FROM u ORDER BY 1 DESC LIMIT 2`, "9 8"},
	} {
		var got []string
		for _, r := range planAndRun(t, cat, tc.q) {
			got = append(got, r[0].String())
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("%s: %v, want %s", tc.q, got, tc.want)
		}
	}
	for _, q := range []string{
		`SELECT a, SUM(b) s FROM t GROUP BY a ORDER BY 3`,
		`SELECT a FROM t ORDER BY 0`,
		`SELECT a FROM t UNION ALL SELECT k FROM u ORDER BY 2`,
	} {
		st, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&Planner{Cat: cat}).PlanQuery(st.AST); err == nil || !strings.Contains(err.Error(), "ORDER BY position") {
			t.Errorf("%s: planned (%v), want a position error", q, err)
		}
	}
}

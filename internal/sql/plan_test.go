package sql

import (
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/storage"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
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

// The data-skipping rewrite: sargable single-table conjuncts move into
// ScanNode.Filters (parameter slots included), residual predicates stay
// as a Select, and the tuple engine still sees every predicate.
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
	var scan *algebra.ScanNode
	var sel *algebra.SelectNode
	var walk func(algebra.Node)
	walk = func(nd algebra.Node) {
		switch v := nd.(type) {
		case *algebra.ScanNode:
			scan = v
		case *algebra.SelectNode:
			sel = v
		}
		for _, c := range nd.Children() {
			walk(c)
		}
	}
	walk(plan)
	if scan == nil || len(scan.Filters) != 3 {
		t.Fatalf("want 3 scan filters (two param bounds + b<100), got %+v", scan)
	}
	if sel == nil || !strings.Contains(sel.Pred.String(), "+") {
		t.Fatalf("arithmetic conjunct must stay residual, got %v", sel)
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
	// EXPLAIN renders the filters on the scan line, unbound slots as $N.
	text := algebra.Explain(plan)
	if !strings.Contains(text, "filters=[") || !strings.Contains(text, "$1") {
		t.Fatalf("EXPLAIN missing filters:\n%s", text)
	}
}

// The read side of a write is an ordinary plan: a row-id scan of just
// the referenced columns with the sargable conjunct pushed into it, the
// residual above, and one Project computing $rid plus the SET values.
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
	want := "Project [$rid b]\n  Select (#1 like \"od%\")\n    Scan t cols=[0 2] rowid filters=[(#0 >= $1)]\n"
	if got := algebra.Explain(plan); got != want {
		t.Fatalf("plan:\n%swant:\n%s", got, want)
	}
	// Binding clones the filtered scan; the clone is still a row-id scan.
	bound, err := algebra.BindParams(plan, []vtypes.Value{vtypes.I64Value(4)})
	if err != nil {
		t.Fatal(err)
	}
	if got := algebra.Explain(bound); !strings.Contains(got, "rowid filters=[(#0 >= 4)]") {
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

package sql

import (
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

func planText(t *testing.T, cat *catalog.Catalog, q string) algebra.Node {
	t.Helper()
	st, err := Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	plan, err := (&Planner{Cat: cat}).PlanQuery(st.AST)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return plan
}

// findJoin returns the first join of the given type, top down.
func findJoin(n algebra.Node, typ algebra.JoinType) *algebra.JoinNode {
	if j, ok := n.(*algebra.JoinNode); ok && j.Type == typ {
		return j
	}
	for _, c := range n.Children() {
		if j := findJoin(c, typ); j != nil {
			return j
		}
	}
	return nil
}

func scanOf(n algebra.Node) string {
	for {
		switch t := n.(type) {
		case *algebra.ScanNode:
			return t.Table
		case *algebra.SelectNode:
			n = t.Input
		default:
			return ""
		}
	}
}

// TestPlanInSubqueryPlacement: `x IN (SELECT ...)` filters the table that
// owns x, so its semi join sits directly on that table, under the joins —
// except on the null-extended side of a LEFT JOIN, where WHERE applies
// after the join, and when x spans tables. Wherever it lands, all three
// engines return what the statement means.
func TestPlanInSubqueryPlacement(t *testing.T) {
	cat := pruneFixture(t)
	// cust holds cid 0 and the odd cids below 40; order id has cust
	// id*7%45, so each of the 45 values twice among ids below 90.
	sub := `(SELECT cust FROM ord WHERE id < 9)` // 0 7 14 21 28 35 42 4 11: customers 0 7 11 21 35
	for _, tc := range []struct {
		q, under string
		rows     int
	}{
		{`SELECT o.id FROM ord o JOIN cust c ON o.cust = c.cid WHERE c.cid IN ` + sub + ` AND o.id < 90`, "cust", 10},
		{`SELECT o.id FROM ord o JOIN cust c ON o.cust = c.cid WHERE o.cust NOT IN ` + sub + ` AND o.id < 90`, "ord", 32},
		{`SELECT c.cid FROM cust c LEFT JOIN ord o ON c.cid = o.cust AND o.id = c.cid WHERE c.cid IN ` + sub, "cust", 5},
		{`SELECT c.cid FROM cust c LEFT JOIN ord o ON c.cid = o.cust WHERE o.cust IN ` + sub + ` AND o.id < 90`, "", 10},
		{`SELECT o.id FROM ord o JOIN cust c ON o.cust = c.cid WHERE o.cust + c.cid IN ` + sub + ` AND o.id < 90`, "", 6},
	} {
		plan := planText(t, cat, tc.q)
		typ := algebra.JoinLeftSemi
		if strings.Contains(tc.q, "NOT IN") {
			typ = algebra.JoinLeftAnti
		}
		j := findJoin(plan, typ)
		if j == nil || scanOf(j.Left) != tc.under {
			t.Errorf("%s: semi join should sit on %q:\n%s", tc.q, tc.under, algebra.Explain(plan))
		}
		want := runOn(t, cat, tc.q, "tuple", plan)
		if n := strings.Count(want, "\n") + 1; n != tc.rows {
			t.Errorf("%s: %d rows, want %d\n%s", tc.q, n, tc.rows, want)
		}
		for _, engine := range []string{"vectorized", "materialized"} {
			if got := runOn(t, cat, tc.q, engine, plan); got != want {
				t.Errorf("%s on %s\ngot\n%s\nwant\n%s", tc.q, engine, got, want)
			}
		}
	}
}

// TestPlanJoinConditionSpanningTables: an ON equality whose one side
// needs two tables (p.id = o.id + c.cid) is a join key only when those
// two are already joined. Here the filter on p makes c ⋈ p the first
// join, o joins that through its own key, and the equality — now over
// columns of one input — applies as a selection. Three rows satisfy it:
// p.cust = c.cid = o.cust forces c.cid = 0 and p.id = o.id ∈ {0, 45, 90}.
func TestPlanJoinConditionSpanningTables(t *testing.T) {
	cat := pruneFixture(t)
	q := `SELECT o.id, p.id FROM ord o JOIN cust c ON o.cust = c.cid
	      JOIN ord p ON p.cust = c.cid AND p.id = o.id + c.cid WHERE p.id < 100`
	plan := planText(t, cat, q)
	out := algebra.Explain(plan)
	if !strings.Contains(out, "Select ((#") || strings.Count(out, "HashJoin inner") != 2 {
		t.Fatalf("want two joins under a selection on the spanning equality:\n%s", out)
	}
	for _, engine := range []string{"vectorized", "tuple", "materialized"} {
		if got := runOn(t, cat, q, engine, plan); got != "0|0\n45|45\n90|90" {
			t.Errorf("%s: got\n%s\n%s", engine, got, out)
		}
	}
	// Written with p first the same equality is an ordinary key.
	q = `SELECT o.id, p.id FROM ord o JOIN cust c ON o.cust = c.cid
	     JOIN ord p ON p.id = o.id + c.cid AND p.cust = c.cid WHERE o.id < 100`
	if got := runOn(t, cat, q, "vectorized", planText(t, cat, q)); got != "0|0\n45|45\n90|90" {
		t.Errorf("got\n%s", got)
	}
	// An ON clause must still tie the new table to the ones before it.
	for _, bad := range []string{
		`SELECT o.id FROM ord o JOIN cust c ON c.cid = c.tier`,
		`SELECT o.id FROM ord o JOIN cust c ON o.id = o.cust`,
		`SELECT o.id FROM ord o JOIN cust c ON o.cust = p.id JOIN ord p ON p.cust = c.cid`,
	} {
		st, err := Parse(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&Planner{Cat: cat}).PlanQuery(st.AST); err == nil || !strings.Contains(err.Error(), "cannot resolve join condition") {
			t.Errorf("%s: err %v", bad, err)
		}
	}
}

// TestPlanKeepsFromOrderWhereItShows: SELECT * lists columns table by
// table as FROM does, and a sort beneath the projection reads a schema a
// cluster shard must agree on with its coordinator — whatever join order
// either chose. Both get a projection restoring FROM order, and lose
// nothing else: the small filtered table is still the hashed side.
func TestPlanKeepsFromOrderWhereItShows(t *testing.T) {
	cat := pruneFixture(t)
	star := planText(t, cat, `SELECT * FROM cust c JOIN ord o ON c.cid = o.cust WHERE c.region = 'north'`)
	names := ""
	for _, c := range star.Schema().Cols {
		names += c.Name + " "
	}
	if names != "cid name tier region id cust total day note " {
		t.Errorf("SELECT * columns: %s\n%s", names, algebra.Explain(star))
	}
	if j := findJoin(star, algebra.JoinInner); j == nil || scanOf(j.Right) != "cust" {
		t.Errorf("the filtered customers should be hashed:\n%s", algebra.Explain(star))
	}
	q := `SELECT o.id FROM cust c JOIN ord o ON c.cid = o.cust WHERE c.region = 'north' ORDER BY o.total DESC, c.name, o.id`
	sorted := planText(t, cat, q)
	below, _ := rewriter.Split(sorted)
	names = ""
	for _, c := range below.Schema().Cols {
		names += c.Name + " "
	}
	if names != "name id total " {
		t.Errorf("a shard ships the sort input in FROM order, got %s\n%s", names, algebra.Explain(below))
	}
	if j := findJoin(sorted, algebra.JoinInner); j == nil || scanOf(j.Right) != "cust" {
		t.Errorf("the filtered customers should be hashed:\n%s", algebra.Explain(sorted))
	}
	want := runOn(t, cat, q, "tuple", sorted)
	if got := runOn(t, cat, q, "vectorized", sorted); got != want || want == "" {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}

// TestNotSpelledRangeEstimatesLikeItsPositive: a join input's
// selectivity is read from the lowered predicate, where a NOT-spelled
// range is already its positive spelling, so it estimates like it and
// not as defaultSel.
func TestNotSpelledRangeEstimatesLikeItsPositive(t *testing.T) {
	b := storage.NewBuilder("orders", vtypes.NewSchema(vtypes.Column{Name: "o_orderdate", Kind: vtypes.KindDate}), 256)
	first := vtypes.MustParseDate("1992-01-01")
	for i := int64(0); i < 2400; i++ {
		if err := b.AppendRow(vtypes.Row{vtypes.DateValue(first + i)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Put(tbl)
	p, sc := &Planner{Cat: cat}, &scope{}
	scan, err := p.baseScan(TableRef{Table: "orders"}, sc)
	if err != nil {
		t.Fatal(err)
	}
	in := p.estimates().card(scan)
	sel := func(where string) float64 {
		st, err := Parse("SELECT o_orderdate FROM orders WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := p.lower(st.AST.(*SelectStmt).Where, sc)
		if err != nil {
			t.Fatal(err)
		}
		return p.estimates().selectivity(pred, in)
	}
	neg, pos := sel("NOT (o_orderdate < DATE '1995-01-01')"), sel("o_orderdate >= DATE '1995-01-01'")
	if neg != pos || pos == defaultSel {
		t.Fatalf("NOT (o_orderdate < 1995-01-01) estimates %v, o_orderdate >= 1995-01-01 %v (defaultSel %v)", neg, pos, defaultSel)
	}
}

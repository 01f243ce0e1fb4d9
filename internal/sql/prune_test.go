package sql

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/matengine"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/storage"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// pruneFixture builds ord(id, cust, total, day, note) over several row
// groups and cust(cid, name, tier NULL, region), with customers that
// have no order and orders whose customer does not exist.
func pruneFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	ob := storage.NewBuilder("ord", vtypes.NewSchema(
		vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "cust", Kind: vtypes.KindI64},
		vtypes.Column{Name: "total", Kind: vtypes.KindF64},
		vtypes.Column{Name: "day", Kind: vtypes.KindDate},
		vtypes.Column{Name: "note", Kind: vtypes.KindStr},
	), 256)
	base := vtypes.MustParseDate("1996-01-01")
	for i := 0; i < 2000; i++ {
		if err := ob.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)), vtypes.I64Value(int64(i * 7 % 45)),
			vtypes.F64Value(float64(i%97) + 0.25), vtypes.DateValue(base + int64(i%400)),
			vtypes.StrValue(fmt.Sprintf("note %d", i%13)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	cb := storage.NewBuilder("cust", vtypes.NewSchema(
		vtypes.Column{Name: "cid", Kind: vtypes.KindI64},
		vtypes.Column{Name: "name", Kind: vtypes.KindStr},
		vtypes.Column{Name: "tier", Kind: vtypes.KindI64, Nullable: true},
		vtypes.Column{Name: "region", Kind: vtypes.KindStr},
	), 16)
	for i := 0; i < 40; i += 1 + i%2 { // some of 0..39; orders reference 0..44
		tier := vtypes.I64Value(int64(i % 3))
		if i%5 == 0 {
			tier = vtypes.NullValue(vtypes.KindI64)
		}
		if err := cb.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)), vtypes.StrValue(fmt.Sprintf("c%02d", i)), tier,
			vtypes.StrValue([]string{"north", "south"}[i%2]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []*storage.Builder{ob, cb} {
		tbl, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		cat.Put(tbl)
	}
	return cat
}

func renderRows(rows []vtypes.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var parts []string
		for _, v := range r {
			if !v.Null && v.Kind == vtypes.KindF64 {
				parts = append(parts, fmt.Sprintf("%.6f", v.F64))
			} else {
				parts = append(parts, v.String())
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// runOn executes a plan on one of the three engines and renders its rows,
// sorted.
func runOn(t *testing.T, cat *catalog.Catalog, q, engine string, plan algebra.Node) string {
	t.Helper()
	var rows []vtypes.Row
	var err error
	switch engine {
	case "vectorized":
		var op core.Operator
		if op, err = xcompile.Compile(plan, cat, xcompile.Options{}); err == nil {
			rows, err = core.Collect(op)
		}
	case "tuple":
		rows, err = tupleengine.Run(plan, cat)
	case "materialized":
		rows, err = matengine.Run(plan, cat)
	}
	if err != nil {
		t.Fatalf("%s on %s: %v\n%s", q, engine, err, algebra.Explain(plan))
	}
	return renderRows(rows)
}

// TestPrunedPlansAgreeWithUnpruned runs every statement from the
// planner's output with and without the column-pruning pass — the test
// calls the pass-free lowering itself; there is no runtime switch — on
// all three engines, serially and under the parallel rewrite. The shapes
// are the ones where dropping a column could go wrong: nothing dropped
// (SELECT *), a sort key or filter column the select list does not name,
// HAVING, semi/anti joins from IN (SELECT …), the constant-key cross
// join of a scalar subquery, LEFT JOIN null extension, set operations.
func TestPrunedPlansAgreeWithUnpruned(t *testing.T) {
	cat := pruneFixture(t)
	queries := []string{
		`SELECT * FROM cust`,
		`SELECT * FROM ord o JOIN cust c ON o.cust = c.cid WHERE o.id < 50`,
		`SELECT id FROM ord ORDER BY total DESC, id LIMIT 25`,
		`SELECT note FROM ord WHERE day >= DATE '1996-06-01' AND total > 90`,
		`SELECT COUNT(*) FROM ord`,
		`SELECT COUNT(*) FROM ord WHERE cust = 3`,
		`SELECT id FROM ord WHERE cust = 3.0 AND id < 700.5`, // int column, float literal: compared as DOUBLE, not pruned on
		`SELECT cust, SUM(total) s FROM ord GROUP BY cust HAVING COUNT(*) > 44 ORDER BY s DESC`,
		`SELECT note, COUNT(*) n, AVG(total) a FROM ord WHERE day < DATE '1996-03-01' GROUP BY note`,
		`SELECT id, total FROM ord WHERE cust IN (SELECT cid FROM cust WHERE region = 'north') AND id < 300`,
		`SELECT id FROM ord WHERE cust NOT IN (SELECT cid FROM cust) AND id < 300`,
		`SELECT id FROM ord WHERE total > (SELECT AVG(total) FROM ord) AND day < DATE '1996-02-01'`,
		`SELECT c.name, o.total FROM cust c LEFT JOIN ord o ON c.cid = o.cust WHERE c.cid > 30`,
		`SELECT o.id, c.tier FROM ord o LEFT JOIN cust c ON o.cust = c.cid WHERE o.id < 120 ORDER BY o.id`,
		`SELECT c.region, SUM(o.total) s FROM ord o JOIN cust c ON o.cust = c.cid GROUP BY c.region ORDER BY s`,
		`SELECT name FROM cust c SEMI JOIN ord o ON c.cid = o.cust`,
		`SELECT cid FROM cust WHERE tier IS NULL UNION ALL SELECT cust FROM ord WHERE id < 5`,
		`SELECT cust FROM ord WHERE id < 400 EXCEPT SELECT cid FROM cust ORDER BY cust`,
	}
	run := func(q, engine string, plan algebra.Node) string { return runOn(t, cat, q, engine, plan) }
	pruned := 0
	for _, q := range queries {
		st, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		p := &Planner{Cat: cat}
		raw, err := p.planQuery(st.AST)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		full := rewriter.SimplifyPlan(raw)
		narrow, err := p.PlanQuery(st.AST)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if algebra.Explain(full) != algebra.Explain(narrow) {
			pruned++
		}
		want := run(q, "tuple", full)
		if want == "" && !strings.Contains(q, "NOT IN") {
			t.Fatalf("%s returns no rows", q)
		}
		for _, engine := range []string{"vectorized", "tuple", "materialized"} {
			if got := run(q, engine, narrow); got != want {
				t.Fatalf("%s: pruned plan on the %s engine\n%s\ngot\n%s\nwant\n%s", q, engine, algebra.Explain(narrow), got, want)
			}
		}
		for _, plan := range []algebra.Node{full, narrow} {
			if got := run(q, "vectorized", rewriter.Parallelize(plan, cat, 2)); got != want {
				t.Fatalf("%s: parallel plan\n%s\ngot\n%s\nwant\n%s", q, algebra.Explain(rewriter.Parallelize(plan, cat, 2)), got, want)
			}
		}
	}
	if pruned < len(queries)-2 { // only the SELECT * statements keep every column
		t.Fatalf("the pass changed %d of %d plans", pruned, len(queries))
	}
	// A scan pipeline still parallelizes once pruned: same union of
	// partition scans, narrower.
	st, err := Parse(`SELECT note FROM ord WHERE day >= DATE '1996-06-01' AND total > 90`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (&Planner{Cat: cat}).PlanQuery(st.AST)
	if err != nil {
		t.Fatal(err)
	}
	out := algebra.Explain(rewriter.Parallelize(plan, cat, 2))
	if !strings.Contains(out, "XchgUnion width=2") || !strings.Contains(out, "Scan ord cols=[2 3 4] part=") {
		t.Fatalf("pruned pipeline under the parallel rewrite:\n%s", out)
	}
}

package cluster

import (
	"testing"

	"vectorwise/internal/sql"
	"vectorwise/internal/tpch"
)

// renderRoundTrip renders e, re-parses it as a WHERE clause and renders
// that: render(parse(render(e))) must equal render(e), which pins that
// rendering loses nothing the parser can express.
func renderRoundTrip(t *testing.T, e sql.Expr) {
	t.Helper()
	r1 := sql.RenderExpr(e)
	stmt, err := sql.Parse("SELECT 1 FROM t WHERE " + r1)
	if err != nil {
		t.Fatalf("re-parse rendered SQL: %v\n%s", err, r1)
	}
	if r2 := sql.RenderExpr(stmt.AST.(*sql.SelectStmt).Where); r1 != r2 {
		t.Fatalf("render not a fixed point:\n1: %s\n2: %s", r1, r2)
	}
}

// TestRenderRoundTrip round-trips every expression of every TPC-H suite
// query that an INSERT's VALUES row could hold — the select items, WHERE
// and GROUP BY, less aggregates and subqueries.
func TestRenderRoundTrip(t *testing.T) {
	for _, q := range tpch.SQLSuite() {
		t.Run(q.Name, func(t *testing.T) {
			stmt, err := sql.Parse(q.SQL)
			if err != nil {
				t.Fatalf("parse original: %v", err)
			}
			sel, ok := stmt.AST.(*sql.SelectStmt)
			if !ok {
				t.Fatalf("not a SELECT: %T", stmt)
			}
			exprs := append([]sql.Expr{sel.Where}, sel.GroupBy...)
			for _, it := range sel.Items {
				exprs = append(exprs, it.Expr)
			}
			for _, e := range exprs {
				nested := false
				sql.MapExpr(e, func(x sql.Expr) sql.Expr {
					switch x.(type) {
					case *sql.AggCall, *sql.SubqueryExpr, *sql.InSubExpr:
						nested = true
					}
					return nil
				})
				if e != nil && !nested {
					renderRoundTrip(t, e)
				}
			}
		})
	}
}

// TestRenderExprForms covers expression shapes the suite queries don't
// exercise: params, CASE, LIKE, negation, IS NULL, string quoting.
func TestRenderExprForms(t *testing.T) {
	for _, src := range []string{
		`s LIKE '%it''s%'`,
		`s NOT LIKE 'a%'`,
		`CASE WHEN k > 1 THEN 'big' ELSE 'small' END = 'big'`,
		`d >= DATE '1994-01-01' AND d < DATE '1995-01-01'`,
		`-k > 0 AND NOT b`,
		`k IS NOT NULL OR b IS NULL`,
		`u.v <> 0 AND k IN (1, 2, 3)`,
		`k BETWEEN $1 AND $2 OR f = 1.5 OR b = TRUE OR s = NULL`,
	} {
		stmt, err := sql.Parse("SELECT 1 FROM t WHERE " + src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		renderRoundTrip(t, stmt.AST.(*sql.SelectStmt).Where)
	}
}

func TestRenderInsert(t *testing.T) {
	src := `INSERT INTO t VALUES (1, 'a''b', DATE '2024-05-01'), (2, 'c', DATE '2024-05-02')`
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.AST.(*sql.InsertStmt)
	r := sql.RenderInsert(ins.Table, ins.Rows)
	stmt2, err := sql.Parse(r)
	if err != nil {
		t.Fatalf("re-parse %q: %v", r, err)
	}
	ins2 := stmt2.AST.(*sql.InsertStmt)
	if ins2.Table != "t" || len(ins2.Rows) != 2 || len(ins2.Rows[0]) != 3 {
		t.Fatalf("round trip mangled insert: %q", r)
	}
}

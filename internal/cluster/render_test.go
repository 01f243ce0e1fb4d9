package cluster

import (
	"testing"

	"vectorwise/internal/sql"
	"vectorwise/internal/tpch"
)

// TestRenderRoundTrip re-parses the rendered form of every TPC-H suite
// query and renders again: render(parse(render(parse(q)))) must be a
// fixed point, which pins that rendering loses nothing the parser can
// express.
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
			r1 := sql.RenderSelect(sel)
			stmt2, err := sql.Parse(r1)
			if err != nil {
				t.Fatalf("re-parse rendered SQL: %v\n%s", err, r1)
			}
			r2 := sql.RenderSelect(stmt2.AST.(*sql.SelectStmt))
			if r1 != r2 {
				t.Fatalf("render not a fixed point:\n1: %s\n2: %s", r1, r2)
			}
		})
	}
}

// TestRenderExprForms covers expression shapes the suite queries don't
// exercise: params, CASE, LIKE, IN-style OR chains, string quoting.
func TestRenderExprForms(t *testing.T) {
	cases := []string{
		`SELECT k FROM t WHERE s LIKE '%it''s%'`,
		`SELECT CASE WHEN k > 1 THEN 'big' ELSE 'small' END AS sz FROM t`,
		`SELECT k FROM t WHERE d >= DATE '1994-01-01' AND d < DATE '1995-01-01'`,
		`SELECT -k AS nk, NOT b AS nb FROM t WHERE k IS NOT NULL OR b IS NULL`,
		`SELECT k FROM t LEFT JOIN u ON t.k = u.k WHERE u.v <> 0`,
		`SELECT k FROM t JOIN u ON t.k = u.k AND t.j = u.j`,
		`SELECT SUM(x) s FROM t GROUP BY g HAVING SUM(x) > 10 ORDER BY s DESC LIMIT 5`,
	}
	for _, src := range cases {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		r1 := sql.RenderSelect(stmt.AST.(*sql.SelectStmt))
		stmt2, err := sql.Parse(r1)
		if err != nil {
			t.Fatalf("re-parse %q (rendered from %q): %v", r1, src, err)
		}
		r2 := sql.RenderSelect(stmt2.AST.(*sql.SelectStmt))
		if r1 != r2 {
			t.Fatalf("not a fixed point for %q:\n1: %s\n2: %s", src, r1, r2)
		}
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

package vectorwise

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"vectorwise/internal/vtypes"
)

func TestQuickstartFlow(t *testing.T) {
	db := OpenMemory()
	if _, err := db.Exec(`CREATE TABLE sales (region VARCHAR, amount DOUBLE, day DATE)`); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Exec(`INSERT INTO sales VALUES
		('north', 10.5, DATE '2011-01-01'),
		('south', 20.0, DATE '2011-01-02'),
		('north', 5.25, DATE '2011-02-01')`); err != nil || n != 3 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	res, err := db.Query(`SELECT region, SUM(amount) AS total, COUNT(*) n
		FROM sales GROUP BY region ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Columns[1] != "total" {
		t.Fatalf("columns: %v", res.Columns)
	}
	if res.Rows[0][0].Str != "north" || res.Rows[0][1].F64 != 15.75 || res.Rows[0][2].I64 != 2 {
		t.Fatalf("north row wrong: %v", res.Rows[0])
	}
}

func TestUpdateDeleteThroughPDTs(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE kv (k BIGINT, v VARCHAR)`)
	mustExec(t, db, `INSERT INTO kv VALUES (1,'a'), (2,'b'), (3,'c'), (4,'d')`)
	if n, err := db.Exec(`UPDATE kv SET v = 'patched' WHERE k = 2`); err != nil || n != 1 {
		t.Fatalf("update: %d %v", n, err)
	}
	if n, err := db.Exec(`DELETE FROM kv WHERE k > 2`); err != nil || n != 2 {
		t.Fatalf("delete: %d %v", n, err)
	}
	res, err := db.Query(`SELECT k, v FROM kv ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][1].Str != "patched" {
		t.Fatalf("post-DML rows: %v", res.Rows)
	}
}

func TestJoinsThroughSQL(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE dept (did BIGINT, dname VARCHAR)`)
	mustExec(t, db, `CREATE TABLE emp (eid BIGINT, ename VARCHAR, did BIGINT, sal DOUBLE)`)
	mustExec(t, db, `INSERT INTO dept VALUES (1,'eng'), (2,'ops')`)
	mustExec(t, db, `INSERT INTO emp VALUES (1,'ada',1,100), (2,'bob',1,80), (3,'eve',2,90), (4,'sam',9,10)`)

	res, err := db.Query(`SELECT d.dname, SUM(e.sal) total
		FROM emp e JOIN dept d ON e.did = d.did
		GROUP BY d.dname ORDER BY total DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "eng" || res.Rows[0][1].F64 != 180 {
		t.Fatalf("join-agg: %v", res.Rows)
	}

	// Anti join: employees with no department.
	res, err = db.Query(`SELECT ename FROM emp e ANTI JOIN dept d ON e.did = d.did`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "sam" {
		t.Fatalf("anti join: %v", res.Rows)
	}

	// Left outer join null-pads.
	res, err = db.Query(`SELECT e.ename, d.dname FROM emp e LEFT JOIN dept d ON e.did = d.did ORDER BY e.eid`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || !res.Rows[3][1].Null {
		t.Fatalf("left join: %v", res.Rows)
	}
}

func TestWherePushdownAndExplain(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE a (x BIGINT)`)
	mustExec(t, db, `CREATE TABLE b (y BIGINT)`)
	mustExec(t, db, `INSERT INTO a VALUES (1),(2),(3)`)
	mustExec(t, db, `INSERT INTO b VALUES (2),(3),(4)`)
	plan, err := db.Explain(`SELECT a.x FROM a JOIN b ON a.x = b.y WHERE a.x > 1 AND b.y < 4`)
	if err != nil {
		t.Fatal(err)
	}
	// Both single-table predicates must push past the join all the way
	// into their scans' filters (the data-skipping rewrite).
	joinPos := indexOf(plan, "HashJoin")
	aPos := indexOf(plan, "Scan a cols=[0] filters=[(#0 > 1)]")
	bPos := indexOf(plan, "Scan b cols=[0] filters=[(#0 < 4)]")
	if joinPos < 0 || aPos < joinPos || bPos < joinPos {
		t.Fatalf("pushdown missing in plan:\n%s", plan)
	}
	res, err := db.Query(`SELECT a.x FROM a JOIN b ON a.x = b.y WHERE a.x > 1 AND b.y < 4 ORDER BY a.x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I64 != 2 || res.Rows[1][0].I64 != 3 {
		t.Fatalf("pushdown query: %v", res.Rows)
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestSQLExpressions(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE t (k BIGINT, s VARCHAR, d DATE, f DOUBLE)`)
	mustExec(t, db, `INSERT INTO t VALUES
		(1, 'promo box', DATE '1995-03-01', 2.0),
		(2, 'plain box', DATE '1996-07-15', 4.0),
		(3, 'promo bag', DATE '1995-11-30', 8.0)`)

	res, err := db.Query(`SELECT SUM(CASE WHEN s LIKE 'promo%' THEN f ELSE 0.0 END) p, SUM(f) tot FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].F64 != 10 || res.Rows[0][1].F64 != 14 {
		t.Fatalf("case/like: %v", res.Rows)
	}

	res, err = db.Query(`SELECT YEAR(d) y, COUNT(*) n FROM t GROUP BY YEAR(d) ORDER BY y`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I64 != 1995 || res.Rows[0][1].I64 != 2 {
		t.Fatalf("year group: %v", res.Rows)
	}

	res, err = db.Query(`SELECT k FROM t WHERE d BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' AND k IN (1, 3) ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("between/in: %v", res.Rows)
	}

	res, err = db.Query(`SELECT k, f * 2 + 1 AS g FROM t WHERE NOT (k = 2) ORDER BY k DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].F64 != 17 {
		t.Fatalf("arith/not/limit: %v", res.Rows)
	}
}

func TestNullHandlingSQL(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE n (k BIGINT, v BIGINT NULL)`)
	mustExec(t, db, `INSERT INTO n VALUES (1, 10), (2, NULL), (3, 30)`)
	res, err := db.Query(`SELECT k FROM n WHERE v IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I64 != 2 {
		t.Fatalf("is null: %v", res.Rows)
	}
	res, err = db.Query(`SELECT k FROM n WHERE v IS NOT NULL ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("is not null: %v", res.Rows)
	}
}

func TestPersistenceAndWALRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE p (k BIGINT, v VARCHAR)`)
	mustExec(t, db, `INSERT INTO p VALUES (1,'one'), (2,'two')`)
	mustExec(t, db, `UPDATE p SET v = 'TWO' WHERE k = 2`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(`SELECT v FROM p ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][0].Str != "TWO" {
		t.Fatalf("recovered rows: %v", res.Rows)
	}

	// Checkpoint flattens PDTs into the stable file and clears the WAL.
	if err := db2.Checkpoint("p"); err != nil {
		t.Fatal(err)
	}
	res, err = db2.Query(`SELECT v FROM p ORDER BY k`)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("post-checkpoint: %v %v", res.Rows, err)
	}
}

func TestErrorPaths(t *testing.T) {
	db := OpenMemory()
	if _, err := db.Exec(`SELECT 1 FROM nope`); err == nil {
		t.Fatal("Exec of SELECT must error")
	}
	if _, err := db.Query(`DELETE FROM nope`); err == nil {
		t.Fatal("Query of DML must error")
	}
	if _, err := db.Query(`SELECT x FROM missing`); err == nil {
		t.Fatal("missing table must error")
	}
	mustExec(t, db, `CREATE TABLE e (x BIGINT)`)
	if _, err := db.Exec(`CREATE TABLE e (x BIGINT)`); err == nil {
		t.Fatal("duplicate table must error")
	}
	if _, err := db.Exec(`INSERT INTO e VALUES (1, 2)`); err == nil {
		t.Fatal("arity mismatch must error")
	}
	if _, err := db.Query(`SELECT nosuch FROM e`); err == nil {
		t.Fatal("unknown column must error")
	}
	if _, err := db.Query(`SELECT x, SUM(x) FROM e`); err == nil {
		t.Fatal("mixed agg/non-agg without GROUP BY must error")
	}
}

// Every SET expression reads the row's pre-image, so assignments in one
// statement cannot observe each other.
func TestUpdateSetReadsPreImage(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE p (a BIGINT, b BIGINT)`)
	mustExec(t, db, `INSERT INTO p VALUES (1, 2), (3, 4)`)
	if n, err := db.Exec(`UPDATE p SET a = b, b = a`); err != nil || n != 2 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	res, err := db.Query(`SELECT a, b FROM p ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != "[[2 1] [4 3]]" {
		t.Fatalf("swap: got %v, want [[2 1] [4 3]]", res.Rows)
	}
	// No WHERE and no SET: the read side scans no column, only row ids.
	if n, err := db.Exec(`DELETE FROM p`); err != nil || n != 2 {
		t.Fatalf("delete all: n=%d err=%v", n, err)
	}
	if res, err = db.Query(`SELECT a FROM p`); err != nil || len(res.Rows) != 0 {
		t.Fatalf("after delete all: %v %v", res, err)
	}
}

// A bad SET list fails the statement even when no row matches.
func TestUpdateSetErrorsAreStatementErrors(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE p (a BIGINT, f BOOLEAN)`)
	mustExec(t, db, `INSERT INTO p VALUES (1, TRUE)`)
	for _, q := range []string{
		`UPDATE p SET nope = 1 WHERE a > 100`,
		`UPDATE p SET a = 'x' WHERE a > 100`,
		`UPDATE p SET a = f WHERE a > 100`,
		`UPDATE p SET a = nope + 1 WHERE a > 100`,
	} {
		if n, err := db.Exec(q); err == nil {
			t.Errorf("%s: n=%d, want an error", q, n)
		}
	}
	// Value coercion keeps CoerceValue's rules: floats truncate into
	// BIGINT columns.
	if n, err := db.Exec(`UPDATE p SET a = a + 1.75 WHERE a = 1`); err != nil || n != 1 {
		t.Fatalf("coercing update: n=%d err=%v", n, err)
	}
	res, err := db.Query(`SELECT a FROM p`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I64 != 2 {
		t.Fatalf("after coercing update: %v %v", res, err)
	}
}

func TestExplainAnalyzeChecksArity(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE p (a BIGINT)`)
	_, err := db.ExplainAnalyze(`SELECT a FROM p`, 7)
	if err == nil || !strings.Contains(err.Error(), "statement takes 0 parameters, got 1") {
		t.Fatalf("ExplainAnalyze with a stray argument: %v", err)
	}
}

func mustExec(t *testing.T, db *DB, q string) {
	t.Helper()
	if _, err := db.Exec(q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

// Exponent literals are DOUBLE numbers, in both number forms, in the
// select list and in predicates, and the plan cache keys them like any
// other literal: the same text hits, another value misses and answers
// its own value.
func TestExponentLiterals(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE x (v DOUBLE)`)
	mustExec(t, db, `INSERT INTO x VALUES (1e3), (2.5E-3), (.5e1)`)
	for _, c := range []struct {
		sql  string
		want []float64
	}{
		{`SELECT 1e3 AS a, 2.5E-3 AS b, .5e1 AS c, 1.5e308 AS d, 7E+2 AS e FROM x WHERE v = 1e3`, []float64{1000, 0.0025, 5, 1.5e308, 700}},
		{`select  1e3 as a, 2.5E-3 as b, .5e1 as c, 1.5e308 as d, 7E+2 as e from x where v = 1e3`, []float64{1000, 0.0025, 5, 1.5e308, 700}},
		{`SELECT 2e3 AS a, 2.5E-3 AS b, .5e1 AS c, 1.5e308 AS d, 7E+2 AS e FROM x WHERE v = 1e3`, []float64{2000, 0.0025, 5, 1.5e308, 700}},
		{`SELECT COUNT(*) AS n, SUM(v) AS s FROM x WHERE v < 1e1`, []float64{2, 5.0025}},
	} {
		res, err := db.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != len(c.want) {
			t.Fatalf("%s: rows %v", c.sql, res.Rows)
		}
		for i, v := range res.Rows[0] {
			got := v.F64
			if v.Kind != vtypes.KindF64 {
				got = float64(v.I64)
			}
			if got != c.want[i] {
				t.Fatalf("%s: column %d is %v, want %v", c.sql, i, v, c.want[i])
			}
		}
	}
	if s := db.PlanCacheStats(); s.Hits != 1 {
		t.Fatalf("plan cache %+v: want one hit, the respelled statement", s)
	}
	for _, bad := range []string{`SELECT 1e`, `SELECT 1e+ FROM x`, `SELECT .5E- AS a`} {
		if _, err := db.Query(bad); err == nil || !strings.Contains(err.Error(), "exponent has no digits") {
			t.Fatalf("%s: %v", bad, err)
		}
	}
}

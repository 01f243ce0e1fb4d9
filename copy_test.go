package vectorwise

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/testutil"
	"vectorwise/internal/vtypes"
)

func copyFixture(t *testing.T) *DB {
	t.Helper()
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE readings (sensor VARCHAR, ts DATE, val DOUBLE NULL, ok BOOLEAN, n BIGINT)`)
	return db
}

func count(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	res, err := db.Query(`SELECT COUNT(*) FROM ` + table)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].I64
}

func TestCopyFromBasicAndAppend(t *testing.T) {
	db := copyFixture(t)
	n, err := db.CopyFrom("readings", strings.NewReader(
		"a,2011-01-01,1.5,true,1\n"+
			"b,2011-01-02,2.5,false,2\n"), CopyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || count(t, db, "readings") != 2 {
		t.Fatalf("n=%d count=%d", n, count(t, db, "readings"))
	}
	// A second load appends; existing rows (including PDT deltas from
	// row-wise DML) are preserved.
	mustExec(t, db, `INSERT INTO readings VALUES ('c', DATE '2011-01-03', 3.5, TRUE, 3)`)
	if _, err := db.CopyFrom("readings", strings.NewReader("d,2011-01-04,4.5,f,4\n"), CopyOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT sensor, SUM(val) s FROM readings GROUP BY sensor ORDER BY sensor`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[2][0].Str != "c" || res.Rows[3][1].F64 != 4.5 {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestCopyFromQuotingAndHeader(t *testing.T) {
	db := copyFixture(t)
	csvText := "sensor,ts,val,ok,n\n" +
		"\"a,comma\",2011-01-01,1,1,1\n" +
		"\"quote \"\" inside\",2011-01-02,2,0,2\n" +
		"\"line\nbreak\",2011-01-03,3,t,3\n"
	n, err := db.CopyFrom("readings", strings.NewReader(csvText), CopyOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("n=%d", n)
	}
	res, err := db.Query(`SELECT sensor FROM readings ORDER BY n`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a,comma", `quote " inside`, "line\nbreak"}
	for i, w := range want {
		if res.Rows[i][0].Str != w {
			t.Fatalf("row %d: %q != %q", i, res.Rows[i][0].Str, w)
		}
	}
}

func TestCopyFromNullsAndDelimiter(t *testing.T) {
	db := copyFixture(t)
	// Custom delimiter and NULL token; val is the only nullable column.
	n, err := db.CopyFrom("readings", strings.NewReader(
		"a|2011-01-01|\\N|true|1\n"+
			"b|2011-01-02|2.5|true|2\n"), CopyOptions{Comma: '|', Null: `\N`})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("n=%d", n)
	}
	res, err := db.Query(`SELECT COUNT(*) FROM readings WHERE val IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I64 != 1 {
		t.Fatalf("null count: %v", res.Rows)
	}
	// The NULL token in a non-nullable column is a parse error, not NULL.
	_, err = db.CopyFrom("readings", strings.NewReader("c|2011-01-03|1||3\n"), CopyOptions{Comma: '|'})
	if err == nil || !strings.Contains(err.Error(), `"ok"`) {
		t.Fatalf("want BOOLEAN parse error on ok, got %v", err)
	}
}

func TestCopyFromRejectsBadRowsAtomically(t *testing.T) {
	db := copyFixture(t)
	if _, err := db.CopyFrom("readings", strings.NewReader("a,2011-01-01,1,1,1\n"), CopyOptions{}); err != nil {
		t.Fatal(err)
	}
	epoch := db.Catalog().Epoch()
	cases := []struct{ csv, want string }{
		{"b,2011-01-02,2,1,not-a-number\n", "line 1"},           // type mismatch, line named
		{"b,2011-01-02,2,1\n", "record on line 1"},              // arity
		{"ok,2011-01-03,3,1,3\nb,not-a-date,2,1,2\n", "line 2"}, // later line named
		{"b,2011-01-02,2,maybe,2\n", "BOOLEAN"},                 // bad bool
	}
	for _, tc := range cases {
		if _, err := db.CopyFrom("readings", strings.NewReader(tc.csv), CopyOptions{}); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Fatalf("csv %q: want error containing %q, got %v", tc.csv, tc.want, err)
		}
	}
	// A failed load leaves no trace: same rows, same schema epoch.
	if got := count(t, db, "readings"); got != 1 {
		t.Fatalf("failed loads must not change the table: count=%d", got)
	}
	if db.Catalog().Epoch() != epoch {
		t.Fatal("failed loads must not bump the schema epoch")
	}
	// Unknown table.
	if _, err := db.CopyFrom("nope", strings.NewReader("x\n"), CopyOptions{}); err == nil {
		t.Fatal("unknown table must error")
	}
}

func TestCopyFromEmptyInput(t *testing.T) {
	db := copyFixture(t)
	if n, err := db.CopyFrom("readings", strings.NewReader(""), CopyOptions{}); err != nil || n != 0 {
		t.Fatalf("empty input: n=%d err=%v", n, err)
	}
	if n, err := db.CopyFrom("readings", strings.NewReader("sensor,ts,val,ok,n\n"), CopyOptions{Header: true}); err != nil || n != 0 {
		t.Fatalf("header only: n=%d err=%v", n, err)
	}
	if count(t, db, "readings") != 0 {
		t.Fatal("empty loads must not add rows")
	}
}

func TestLoadBatchColumnarPath(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE m (k BIGINT, v DOUBLE NULL, tag VARCHAR)`)
	const rows = 10000
	ks := make([]int64, rows)
	vs := make([]float64, rows)
	tags := make([]string, rows)
	vnulls := make([]bool, rows)
	for i := range ks {
		ks[i] = int64(i)
		vs[i] = float64(i)
		tags[i] = [2]string{"x", "y"}[i%2]
		vnulls[i] = i%100 == 0
	}
	n, err := db.LoadBatch("m", []any{ks, vs, tags}, [][]bool{nil, vnulls, nil})
	if err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("n=%d", n)
	}
	res, err := db.Query(`SELECT tag, COUNT(*) c, SUM(v) s FROM m WHERE v IS NOT NULL GROUP BY tag ORDER BY tag`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].I64+res.Rows[1][1].I64 != rows-100 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// A class mismatch is rejected with the table untouched.
	if _, err := db.LoadBatch("m", []any{vs, vs, tags}, nil); err == nil {
		t.Fatal("class mismatch must error")
	}
	if count(t, db, "m") != rows {
		t.Fatal("failed batch must not change the table")
	}
}

// TestLoadBatchNullsHoldSafeValues: a NULL loaded through LoadBatch is
// stored as its class's safe value, as AppendRow stores it, whatever
// value the caller's slice holds under the flag, and the caller's slices
// are left as they were. The vectorized engine, which groups and filters
// on stored values, then answers as the tuple engine, which reads the
// NULL flags.
func TestLoadBatchNullsHoldSafeValues(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE t (k BIGINT, v BIGINT NULL, s VARCHAR NULL)`)
	vs, ss := []int64{5, 7, 5}, []string{"a", "b", "a"}
	flags := []bool{true, true, false}
	if _, err := db.LoadBatch("t", []any{[]int64{1, 2, 3}, vs, ss}, [][]bool{nil, flags, flags}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(vs, []int64{5, 7, 5}) || !slices.Equal(ss, []string{"a", "b", "a"}) {
		t.Fatalf("LoadBatch wrote the caller's slices: %v %v", vs, ss)
	}
	for q, want := range map[string]string{
		`SELECT v, COUNT(*) FROM t GROUP BY v`: "[[NULL 2] [5 1]]",
		`SELECT s, COUNT(*) FROM t GROUP BY s`: "[[NULL 2] [a 1]]",
		`SELECT COUNT(*) FROM t WHERE v = 5`:   "[[1]]",
		`SELECT COUNT(*) FROM t WHERE s = 'a'`: "[[1]]",
	} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := testutil.SameRowsUnordered(q, tupleRows(t, db, q), res.Rows); err != nil {
			t.Error(err)
		}
		rows := slices.Clone(res.Rows)
		slices.SortFunc(rows, func(a, b vtypes.Row) int { return a[0].Compare(b[0]) })
		if got := fmt.Sprint(rows); got != want {
			t.Errorf("%s: %s, want %s", q, got, want)
		}
	}
}

// Bulk loads on a disk-backed DB survive reopen, and the WAL reset at
// the load boundary must not lose other tables' committed DML.
func TestCopyFromDurability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE a (k BIGINT, s VARCHAR)`)
	mustExec(t, db, `CREATE TABLE b (k BIGINT)`)
	mustExec(t, db, `INSERT INTO b VALUES (7), (8)`) // lives in the WAL only
	if _, err := db.CopyFrom("a", strings.NewReader("1,x\n2,y\n3,z\n"), CopyOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := count(t, db2, "a"); got != 3 {
		t.Fatalf("a: %d rows after reopen", got)
	}
	if got := count(t, db2, "b"); got != 2 {
		t.Fatalf("b: %d rows after reopen (WAL reset lost committed DML)", got)
	}
}

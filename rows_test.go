package vectorwise

import (
	"context"
	"errors"
	"testing"
	"time"
)

// rowsTestDB builds a DB with a single table of n rows for cursor
// tests, populated through the bulk columnar path so large fixtures
// stay fast under -race.
func rowsTestDB(t testing.TB, n int) *DB {
	t.Helper()
	db := OpenMemory()
	if _, err := db.Exec(`CREATE TABLE pts (k BIGINT, v DOUBLE, tag VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	tags := []string{"a", "b", "c"}
	ks := make([]int64, n)
	vs := make([]float64, n)
	ts := make([]string, n)
	for i := 0; i < n; i++ {
		ks[i] = int64(i)
		vs[i] = float64(i%100) + 0.5
		ts[i] = tags[i%3]
	}
	if _, err := db.LoadBatch("pts", []any{ks, vs, ts}, nil); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRowsMatchesQuery pins the cursor path row-identical to the
// collect-all path, via both the row-at-a-time (Next/Scan) and the
// columnar (NextBatch) consumers.
func TestRowsMatchesQuery(t *testing.T) {
	db := rowsTestDB(t, 2500)
	const q = `SELECT tag, COUNT(*) n, SUM(v) s FROM pts WHERE k < 2000 GROUP BY tag ORDER BY tag`
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	// Row-at-a-time.
	rows, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 3 || cols[0] != "tag" || cols[1] != "n" {
		t.Fatalf("columns: %v", cols)
	}
	i := 0
	for rows.Next() {
		var tag string
		var n int64
		var s float64
		if err := rows.Scan(&tag, &n, &s); err != nil {
			t.Fatal(err)
		}
		want := res.Rows[i]
		if tag != want[0].Str || n != want[1].I64 || s != want[2].F64 {
			t.Fatalf("row %d: got (%s,%d,%g) want %v", i, tag, n, s, want)
		}
		i++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(res.Rows) {
		t.Fatalf("cursor yielded %d rows, Query %d", i, len(res.Rows))
	}

	// Columnar.
	rows2, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	var got int
	for {
		b, err := rows2.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for r := 0; r < b.N; r++ {
			want := res.Rows[got]
			row := b.Row(r)
			for c := range want {
				if want[c].Compare(row[c]) != 0 {
					t.Fatalf("batch row %d col %d: got %v want %v", got, c, row[c], want[c])
				}
			}
			got++
		}
	}
	if got != len(res.Rows) {
		t.Fatalf("NextBatch yielded %d rows, Query %d", got, len(res.Rows))
	}
}

// TestRowsCodedColumns: scanned dictionary columns, VARCHAR and DOUBLE,
// reach the cursor coded. NextCodedBatch hands them on as they are;
// NextBatch hands out their live rows' values in vectors the cursor owns,
// and never writes the scan's; Next/Scan read them through the
// dictionary.
func TestRowsCodedColumns(t *testing.T) {
	db := rowsTestDB(t, 2500)
	const q = `SELECT k, tag, v FROM pts WHERE k BETWEEN 1500 AND 1510 OR k = 7`
	type row struct {
		tag string
		v   float64
	}
	want := map[int64]row{7: {"b", 7.5}}
	for k := int64(1500); k <= 1510; k++ {
		want[k] = row{[]string{"a", "b", "c"}[k%3], float64(k%100) + 0.5}
	}
	for _, mode := range []string{"coded", "filled", "scan"} {
		rows, err := db.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int64]row{}
		for mode == "scan" && rows.Next() {
			var k int64
			var r row
			if err := rows.Scan(&k, &r.tag, &r.v); err != nil {
				t.Fatal(err)
			}
			got[k] = r
		}
		for mode != "scan" {
			next := rows.NextBatch
			if mode == "coded" {
				next = rows.NextCodedBatch
			}
			b, err := next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			tag, v := b.Vecs[1], b.Vecs[2]
			if (tag.Codes != nil) != (mode == "coded") || (tag.Str == nil) != (mode == "coded") ||
				(v.Codes != nil) != (mode == "coded") || (v.F64 == nil) != (mode == "coded") {
				t.Fatalf("%s batch: tag holds %d codes and %d strings, v %d codes and %d values",
					mode, len(tag.Codes), len(tag.Str), len(v.Codes), len(v.F64))
			}
			for r := range b.N {
				i := b.LiveIndex(r)
				if mode == "filled" {
					got[b.Vecs[0].I64[i]] = row{tag.Str[i], v.F64[i]}
				} else {
					got[b.Vecs[0].I64[i]] = row{tag.StrAt(i), v.F64At(i)}
				}
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", mode, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("%s: k=%d %+v, want %+v", mode, k, got[k], w)
			}
		}
	}
}

// TestRowsSnapshotDoesNotBlockWriter: an open cursor pins an epoch
// snapshot, not a lock, so a concurrent Exec proceeds immediately —
// and the cursor still yields exactly the rows of its pinned epoch,
// unaffected by the commit. Run under -race in CI.
func TestRowsSnapshotDoesNotBlockWriter(t *testing.T) {
	const total = 3000
	db := rowsTestDB(t, total)
	rows, err := db.QueryContext(context.Background(), `SELECT k, v FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	pinned := rows.Epoch()
	first, err := rows.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(first.N)

	execDone := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO pts VALUES (999999, 1.5, 'z')`)
		execDone <- err
	}()
	select {
	case err := <-execDone:
		if err != nil {
			t.Fatalf("Exec with open cursor: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Exec blocked behind an open cursor (snapshot read not lock-free)")
	}
	if db.Epoch() == pinned {
		t.Fatal("commit did not advance the data epoch")
	}

	// The cursor keeps streaming its pinned epoch: the concurrent
	// insert must not appear, and the row count is exactly the
	// snapshot's.
	for {
		b, err := rows.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			if k := b.Vecs[0].I64[b.LiveIndex(i)]; k == 999999 {
				t.Fatal("cursor observed a row committed after its snapshot was pinned")
			}
		}
		n += int64(b.N)
	}
	if n != total {
		t.Fatalf("pinned cursor saw %d rows, want %d", n, total)
	}

	// A fresh cursor pins the new epoch and sees the insert.
	res, err := db.Query(`SELECT COUNT(*) FROM pts WHERE k = 999999`)
	if err != nil {
		t.Fatal(err)
	}
	if cnt := res.Rows[0][0].I64; cnt != 1 {
		t.Fatalf("new cursor: inserted row count = %d, want 1", cnt)
	}
}

// TestRowsMidScanCancellation: canceling the context stops the
// statement mid-flight — the cursor reports the context error, fewer
// rows than the full result were produced, and the read lock is
// released (a subsequent Exec proceeds).
func TestRowsMidScanCancellation(t *testing.T) {
	const total = 50000
	db := rowsTestDB(t, total)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, `SELECT k, v, tag FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	b, err := rows.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	seen += b.N
	cancel()
	for {
		b, err := rows.NextBatch()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			break
		}
		if b == nil {
			t.Fatal("scan ran to completion despite cancellation")
		}
		seen += b.N
	}
	if seen >= total {
		t.Fatalf("consumed all %d rows; cancellation did not stop the scan", seen)
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err: want context.Canceled, got %v", err)
	}
	// The cursor auto-closed on error: the write lock must be free.
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO pts VALUES (111111, 2.5, 'w')`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write lock still held after canceled cursor")
	}
}

// TestRowsCloseSemantics: double Close is a no-op, and Scan/Next/
// NextBatch after Close fail cleanly.
func TestRowsCloseSemantics(t *testing.T) {
	db := rowsTestDB(t, 100)
	rows, err := db.QueryContext(context.Background(), `SELECT k FROM pts ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected a first row")
	}
	var k int64
	if err := rows.Scan(&k); err != nil || k != 0 {
		t.Fatalf("scan: k=%d err=%v", k, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if err := rows.Scan(&k); !errors.Is(err, ErrRowsClosed) {
		t.Fatalf("Scan after Close: want ErrRowsClosed, got %v", err)
	}
	if rows.Next() {
		t.Fatal("Next after Close returned true")
	}
	if _, err := rows.NextBatch(); !errors.Is(err, ErrRowsClosed) {
		t.Fatalf("NextBatch after Close: want ErrRowsClosed, got %v", err)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err after clean Close: %v", err)
	}

	// Scan without Next is an error too.
	rows2, err := db.QueryContext(context.Background(), `SELECT k FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	if err := rows2.Scan(&k); err == nil {
		t.Fatal("Scan before Next should error")
	}
}

// TestRowsAutoCloseReleasesLock: fully draining a cursor (Next returns
// false) releases the read lock without an explicit Close.
func TestRowsAutoCloseReleasesLock(t *testing.T) {
	db := rowsTestDB(t, 500)
	rows, err := db.QueryContext(context.Background(), `SELECT k FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("drained %d rows", n)
	}
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO pts VALUES (7777, 1.0, 'q')`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drained cursor did not release the read lock")
	}
}

// TestRowsScanDate: DATE columns scan into *time.Time, and time.Time
// parameters bind to DATE predicates (no pre-formatted strings).
func TestRowsScanDate(t *testing.T) {
	db := OpenMemory()
	if _, err := db.Exec(`CREATE TABLE ev (name VARCHAR, day DATE)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO ev VALUES
		('early', DATE '1994-01-01'),
		('mid',   DATE '1994-06-15'),
		('late',  DATE '1995-03-02')`); err != nil {
		t.Fatal(err)
	}

	cut := time.Date(1994, 12, 31, 23, 0, 0, 0, time.UTC) // clock ignored: civil date binds
	stmt, err := db.Prepare(`SELECT name, day FROM ev WHERE day <= ? ORDER BY day`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.QueryContext(context.Background(), cut)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var names []string
	var last time.Time
	for rows.Next() {
		var name string
		var day time.Time
		if err := rows.Scan(&name, &day); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		last = day
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "early" || names[1] != "mid" {
		t.Fatalf("date-bound predicate matched %v", names)
	}
	if want := time.Date(1994, 6, 15, 0, 0, 0, 0, time.UTC); !last.Equal(want) {
		t.Fatalf("scanned date %v, want %v", last, want)
	}

	// Mismatched destinations error instead of coercing: a DATE never
	// leaks as a raw day count, numbers never stringify silently.
	rows2, err := db.QueryContext(context.Background(), `SELECT name, day FROM ev ORDER BY day`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows2.Next() {
		t.Fatal("no row")
	}
	var i64 int64
	var s string
	if err := rows2.Scan(&s, &i64); err == nil {
		t.Fatal("scanning DATE into *int64 should error")
	}
	var f float64
	if err := rows2.Scan(&s, &f); err == nil {
		t.Fatal("scanning DATE into *float64 should error")
	}
	if err := rows2.Scan(&f, &s); err == nil {
		t.Fatal("scanning VARCHAR into *float64 should error")
	}
	// ...but DATE formats into *string.
	if err := rows2.Scan(&s, &s); err != nil {
		t.Fatal(err)
	}
	if s != "1994-01-01" {
		t.Fatalf("DATE into *string: %q", s)
	}
	// Close before the Exec below: an open cursor holds the read lock,
	// and Exec on the same goroutine would deadlock.
	if err := rows2.Close(); err != nil {
		t.Fatal(err)
	}

	// Exec path binds time.Time too.
	if _, err := db.ExecArgs(`INSERT INTO ev VALUES ('added', ?)`,
		time.Date(1996, 2, 29, 12, 30, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryArgs(`SELECT name FROM ev WHERE day = ?`,
		time.Date(1996, 2, 29, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "added" {
		t.Fatalf("time.Time INSERT/lookup: %v", res.Rows)
	}
}

// TestQueryContextParallelPlan exercises the cursor over an exchange-
// parallelized plan: batches stream out of worker goroutines and
// cancellation joins them (run under -race).
func TestQueryContextParallelPlan(t *testing.T) {
	db := rowsTestDB(t, 30000)
	db.SetParallelism(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := db.QueryContext(ctx, `SELECT tag, SUM(v) s FROM pts GROUP BY tag ORDER BY tag`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("got %d groups, want 3", n)
	}

	// And a canceled parallel cursor must not leak workers or the lock.
	ctx2, cancel2 := context.WithCancel(context.Background())
	rows2, err := db.QueryContext(ctx2, `SELECT k, v FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows2.NextBatch(); err != nil {
		t.Fatal(err)
	}
	cancel2()
	for {
		b, err := rows2.NextBatch()
		if err != nil || b == nil {
			break
		}
	}
	rows2.Close()
	if _, err := db.Exec(`INSERT INTO pts VALUES (1, 1.0, 'x')`); err != nil {
		t.Fatal(err)
	}
}

// TestRowsEarlyCloseAbortsStatement: Close on a partially consumed
// cursor aborts the statement instead of executing the remainder — the
// exchange producers of a parallel plan observe the internal cancel
// and a follow-up write acquires the lock promptly.
func TestRowsEarlyCloseAbortsStatement(t *testing.T) {
	db := rowsTestDB(t, 200000)
	db.SetParallelism(4)
	rows, err := db.QueryContext(context.Background(), `SELECT k, v, tag FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.NextBatch(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// A leaked statement would still hold the read lock here.
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO pts VALUES (999999, 1.0, 'z')`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write blocked after early Close")
	}
}

package vectorwise

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func preparedFixture(t *testing.T) *DB {
	t.Helper()
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE acct (k BIGINT, bal DOUBLE, owner VARCHAR, opened DATE)`)
	mustExec(t, db, `INSERT INTO acct VALUES
		(1, 100.5, 'ada', DATE '2011-01-01'),
		(2, 250.0, 'bob', DATE '2011-06-15'),
		(3,  75.25, 'eve', DATE '2012-03-09'),
		(4, 500.0, 'ada', DATE '2012-11-30')`)
	return db
}

func TestPreparedSelectBindsAndReuses(t *testing.T) {
	db := preparedFixture(t)
	stmt, err := db.Prepare(`SELECT owner, bal FROM acct WHERE k = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 || !stmt.IsSelect() {
		t.Fatalf("stmt meta: params=%d select=%v", stmt.NumParams(), stmt.IsSelect())
	}
	base := db.PlanCacheStats()
	for i, want := range []struct {
		k     int64
		owner string
		bal   float64
	}{{1, "ada", 100.5}, {2, "bob", 250.0}, {3, "eve", 75.25}} {
		res, err := stmt.Query(want.k)
		if err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str != want.owner || res.Rows[0][1].F64 != want.bal {
			t.Fatalf("k=%d: %v", want.k, res.Rows)
		}
	}
	// A prepared handle memoizes its compilation: bound executions do
	// not re-plan (no misses) — they do not even re-consult the cache
	// while the schema epoch is unchanged (no hits either).
	st := db.PlanCacheStats()
	if st.Misses != base.Misses {
		t.Fatalf("bound executions re-planned: %+v vs %+v", st, base)
	}
	if st.Hits != base.Hits {
		t.Fatalf("bound executions re-resolved the cache: %+v vs %+v", st, base)
	}
	// After DDL the handle re-resolves once, then memoizes again.
	mustExec(t, db, `CREATE TABLE ddl_bump (x BIGINT)`)
	mid := db.PlanCacheStats()
	if _, err := stmt.Query(int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(int64(2)); err != nil {
		t.Fatal(err)
	}
	end := db.PlanCacheStats()
	if end.Misses != mid.Misses+1 {
		t.Fatalf("stale handle should re-plan exactly once: %+v vs %+v", end, mid)
	}
}

// TestBoundDMLCoercionMatchesSelect pins the contract that a bound
// parameter means the same thing in DML as in a SELECT template: both
// coerce to the kind the expression resolves (floats truncate beside
// BIGINT, strings parse beside DATE).
func TestBoundDMLCoercionMatchesSelect(t *testing.T) {
	db := preparedFixture(t)
	sel, err := db.QueryArgs(`SELECT COUNT(*) n FROM acct WHERE k = ?`, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	matched := sel.Rows[0][0].I64
	if matched != 1 { // 1.5 truncates to k = 1
		t.Fatalf("SELECT with float param matched %d rows", matched)
	}
	n, err := db.ExecArgs(`UPDATE acct SET bal = 0 WHERE k = ?`, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != matched {
		t.Fatalf("UPDATE matched %d rows, SELECT matched %d — bound DML diverges", n, matched)
	}
	// String → DATE coercion on the DML path.
	if n, err := db.ExecArgs(`DELETE FROM acct WHERE opened = ?`, "2012-03-09"); err != nil || n != 1 {
		t.Fatalf("DELETE with string date param: n=%d err=%v", n, err)
	}
	// Bare placeholder SET adopts the column kind.
	if n, err := db.ExecArgs(`UPDATE acct SET bal = ? WHERE k = ?`, 7, 2); err != nil || n != 1 {
		t.Fatalf("SET ?: n=%d err=%v", n, err)
	}
	res, err := db.QueryArgs(`SELECT bal FROM acct WHERE k = ?`, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].F64 != 7 {
		t.Fatalf("int param did not widen into DOUBLE column: %v", res.Rows)
	}
}

func TestTransparentCacheOnQueryArgs(t *testing.T) {
	db := preparedFixture(t)
	base := db.PlanCacheStats()
	for i := 0; i < 4; i++ {
		res, err := db.QueryArgs(`SELECT bal FROM acct WHERE k = ?`, int64(i%3+1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("iter %d: %v", i, res.Rows)
		}
	}
	st := db.PlanCacheStats()
	if st.Misses-base.Misses != 1 || st.Hits-base.Hits != 3 {
		t.Fatalf("want 1 miss + 3 hits, got %+v (base %+v)", st, base)
	}
	// Textual variants normalize onto the same entry.
	if _, err := db.QueryArgs("SELECT  bal  FROM acct WHERE k = ?;", int64(2)); err != nil {
		t.Fatal(err)
	}
	if got := db.PlanCacheStats(); got.Misses != st.Misses {
		t.Fatalf("normalized variant missed the cache: %+v", got)
	}
}

func TestPreparedParamShapes(t *testing.T) {
	db := preparedFixture(t)

	// BETWEEN with placeholders decomposes into bound comparisons.
	res, err := db.QueryArgs(`SELECT k FROM acct WHERE bal BETWEEN ? AND ? ORDER BY k`, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I64 != 1 || res.Rows[1][0].I64 != 2 {
		t.Fatalf("between: %v", res.Rows)
	}

	// IN with placeholders; string and repeated $1 binding.
	res, err = db.QueryArgs(`SELECT COUNT(*) n FROM acct WHERE owner IN ($1, $2)`, "ada", "eve")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I64 != 3 {
		t.Fatalf("in: %v", res.Rows)
	}

	// Date parameters bind from strings; int widens beside DOUBLE.
	res, err = db.QueryArgs(`SELECT COUNT(*) n FROM acct WHERE opened >= ? AND bal > ?`, "2012-01-01", 80)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I64 != 1 {
		t.Fatalf("date+widen: %v", res.Rows)
	}

	// Parameters in projections adopt the sibling kind.
	res, err = db.QueryArgs(`SELECT bal * ? FROM acct WHERE k = ?`, 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].F64 != 201.0 {
		t.Fatalf("arith param: %v", res.Rows)
	}
}

func TestPreparedDML(t *testing.T) {
	db := preparedFixture(t)
	ins, err := db.Prepare(`INSERT INTO acct VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.IsSelect() || ins.NumParams() != 4 {
		t.Fatalf("insert meta: %+v", ins)
	}
	if n, err := ins.Exec(5, 10.0, "sam", "2013-01-01"); err != nil || n != 1 {
		t.Fatalf("insert exec: %d %v", n, err)
	}
	upd, err := db.Prepare(`UPDATE acct SET bal = bal + ? WHERE owner = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := upd.Exec(1.5, "ada"); err != nil || n != 2 {
		t.Fatalf("update exec: %d %v", n, err)
	}
	del, err := db.Prepare(`DELETE FROM acct WHERE k = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := del.Exec(5); err != nil || n != 1 {
		t.Fatalf("delete exec: %d %v", n, err)
	}
	res, err := db.QueryArgs(`SELECT SUM(bal) s FROM acct WHERE owner = ?`, "ada")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].F64 != 100.5+500.0+3.0 {
		t.Fatalf("post-DML sum: %v", res.Rows)
	}
}

func TestPreparedErrors(t *testing.T) {
	db := preparedFixture(t)
	stmt, err := db.Prepare(`SELECT k FROM acct WHERE k = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); err == nil || !strings.Contains(err.Error(), "1 parameter") {
		t.Fatalf("missing arg: %v", err)
	}
	if _, err := stmt.Query(1, 2); err == nil {
		t.Fatal("extra arg accepted")
	}
	if _, err := stmt.Exec(1); err == nil {
		t.Fatal("Exec on SELECT accepted")
	}
	if _, err := db.QueryArgs(`SELECT k FROM acct WHERE k = ?`, []int{1}); err == nil {
		t.Fatal("slice param accepted")
	}
	if _, err := db.Prepare(`BEGIN`); err == nil {
		t.Fatal("prepared transaction control accepted")
	}
	if _, err := db.QueryArgs(`SELECT k FROM acct WHERE ? = ?`, 1, 1); err == nil {
		t.Fatal("param-param comparison must fail kind inference")
	}
	// Unknown tables fail at prepare time for SELECT.
	if _, err := db.Prepare(`SELECT x FROM missing`); err == nil {
		t.Fatal("prepare against missing table accepted")
	}
}

// TestPlanCacheInvalidation proves a cached plan is not reused once the
// schema epoch moves: DDL and Checkpoint each strand the old
// entry (structural invalidation, not purging).
func TestPlanCacheInvalidation(t *testing.T) {
	db := preparedFixture(t)
	const q = `SELECT COUNT(*) n FROM acct WHERE k >= $1`

	// run executes q once and reports whether that single lookup hit
	// or re-planned (delta-based: other statements also touch the
	// counters).
	run := func(arg int64, wantRows int64) (hit, miss uint64) {
		t.Helper()
		before := db.PlanCacheStats()
		res, err := db.QueryArgs(q, arg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I64 != wantRows {
			t.Fatalf("rows: %v", res.Rows)
		}
		after := db.PlanCacheStats()
		return after.Hits - before.Hits, after.Misses - before.Misses
	}

	if hit, miss := run(1, 4); hit != 0 || miss != 1 {
		t.Fatalf("cold run: hit=%d miss=%d", hit, miss)
	}
	if hit, miss := run(1, 4); hit != 1 || miss != 0 {
		t.Fatalf("warm run not served from cache: hit=%d miss=%d", hit, miss)
	}

	// DDL bumps the epoch: the next execution must re-plan.
	mustExec(t, db, `CREATE TABLE other (x BIGINT)`)
	if hit, miss := run(1, 4); hit != 0 || miss != 1 {
		t.Fatalf("DDL did not invalidate: hit=%d miss=%d", hit, miss)
	}

	// Checkpoint folds deltas into a new stable image (row-group
	// layout can change) — must also re-plan.
	if err := db.Checkpoint("acct"); err != nil {
		t.Fatal(err)
	}
	if hit, miss := run(1, 4); hit != 0 || miss != 1 {
		t.Fatalf("Checkpoint did not invalidate: hit=%d miss=%d", hit, miss)
	}

	// Plain DML must NOT invalidate: plans re-resolve PDT layers at
	// execution, so the cache keeps serving (and sees fresh rows).
	mustExec(t, db, `INSERT INTO acct VALUES (9, 1.0, 'zed', DATE '2013-01-01')`)
	if hit, miss := run(9, 1); hit != 1 || miss != 0 {
		t.Fatalf("DML invalidated the cache: hit=%d miss=%d", hit, miss)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db := preparedFixture(t)
	db.SetPlanCacheCapacity(0)
	for i := 0; i < 3; i++ {
		if _, err := db.QueryArgs(`SELECT k FROM acct WHERE k = ?`, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlanCacheStats()
	if st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache served hits: %+v", st)
	}
}

// A cached DDL/DML artifact keeps its AST, so what one cache entry pins
// is the AST's own few hundred bytes plus the key text and cache
// bookkeeping. The same 1 000 distinct literal statements run against a
// caching and a non-caching DB; the difference in live heap is the
// cache's, the rest (deltas, WAL-less transaction state) cancels.
func TestCachedDMLRetention(t *testing.T) {
	const n = 1000
	const maxPerStmt = 3 << 10
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, c := range []struct {
		kind string
		text func(i int) string
	}{
		{"INSERT", func(i int) string {
			return fmt.Sprintf(`INSERT INTO ev VALUES (%d, DATE '2011-04-05', 2, 1.5)`, n+i)
		}},
		{"UPDATE", func(i int) string {
			return fmt.Sprintf(`UPDATE ev SET a = a + %d, x = 2.5 WHERE k = %d AND d >= DATE '2011-01-01'`, i, i)
		}},
		{"DELETE", func(i int) string {
			return fmt.Sprintf(`DELETE FROM ev WHERE k = %d AND d >= DATE '2011-01-01'`, i)
		}},
	} {
		kind, text := c.kind, c.text
		growth := func(capacity int) int64 {
			db := OpenMemory()
			defer db.Close()
			mustExec(t, db, `CREATE TABLE ev (k BIGINT, d DATE, a BIGINT, x DOUBLE)`)
			var rows []string
			for i := 0; i < n; i++ {
				rows = append(rows, fmt.Sprintf(`(%d, DATE '2011-04-05', 1, 0.5)`, i))
			}
			mustExec(t, db, `INSERT INTO ev VALUES `+strings.Join(rows, ", "))
			db.SetPlanCacheCapacity(capacity)
			before := liveHeap()
			for i := 0; i < n; i++ {
				mustExec(t, db, text(i))
			}
			grown := liveHeap() - before
			if capacity > 0 && db.PlanCacheStats().Entries < n {
				t.Fatalf("%s: cache holds %d entries, want all %d", kind, db.PlanCacheStats().Entries, n)
			}
			return grown
		}
		perStmt := (growth(n+16) - growth(0)) / n
		t.Logf("%s: %d B of live heap per cached statement", kind, perStmt)
		if perStmt > maxPerStmt {
			t.Errorf("%s: a cached statement pins %d B, want ≤ %d", kind, perStmt, maxPerStmt)
		}
	}
}

func TestExplainWithPlaceholders(t *testing.T) {
	db := preparedFixture(t)
	plan, err := db.Explain(`SELECT owner FROM acct WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "$1") {
		t.Fatalf("placeholder missing from template plan:\n%s", plan)
	}
	if !strings.Contains(plan, "Scan acct") {
		t.Fatalf("plan shape:\n%s", plan)
	}
}

package vectorwise

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"vectorwise/internal/tpch"
)

// nullJoinDB is the smallest fixture that shows both NULL-in-join bugs:
// a NULL key on each side beside a zero key (the value a NULL's slot
// holds), and a build row whose payload is NULL.
func nullJoinDB(t *testing.T) *DB {
	t.Helper()
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE a (k BIGINT NULL, x BIGINT)`)
	mustExec(t, db, `CREATE TABLE b (k BIGINT NULL, y BIGINT NULL, s VARCHAR NULL)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 10), (NULL, 20), (0, 30)`)
	mustExec(t, db, `INSERT INTO b VALUES (1, NULL, NULL), (NULL, 200, 'n'), (0, 300, 'z')`)
	return db
}

func queryStrings(t *testing.T, db *DB, q string) []string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// TestJoinKeepsBuildPayloadNulls: a NULL in a build-side column that is
// not a key comes out of the join as NULL, not as the zero value.
func TestJoinKeepsBuildPayloadNulls(t *testing.T) {
	db := nullJoinDB(t)
	defer db.Close()
	res, err := db.Query(`SELECT a.x, b.y, b.s FROM a JOIN b ON a.k = b.k WHERE a.k = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I64 != 10 || !res.Rows[0][1].Null || !res.Rows[0][2].Null {
		t.Fatalf("k = 1 joins b's (1, NULL, NULL): got %v", res.Rows)
	}
}

// TestJoinNullKeysNeverMatch: a NULL key equals nothing — not another
// NULL, not the zero its slot holds — so it is a miss for inner and semi
// joins, a survivor of anti joins and a null-extended row of left joins.
func TestJoinNullKeysNeverMatch(t *testing.T) {
	db := nullJoinDB(t)
	defer db.Close()
	for _, tc := range []struct {
		q    string
		want []string
	}{
		{`SELECT a.x, b.y FROM a JOIN b ON a.k = b.k ORDER BY a.x`, []string{"[10 NULL]", "[30 300]"}},
		{`SELECT a.x, b.y, b.s FROM a LEFT JOIN b ON a.k = b.k ORDER BY a.x`, []string{"[10 NULL NULL]", "[20 NULL NULL]", "[30 300 z]"}},
		{`SELECT a.x FROM a SEMI JOIN b ON a.k = b.k ORDER BY a.x`, []string{"[10]", "[30]"}},
		{`SELECT a.x FROM a ANTI JOIN b ON a.k = b.k ORDER BY a.x`, []string{"[20]"}},
		{`SELECT x FROM a WHERE k IN (SELECT k FROM b) ORDER BY x`, []string{"[10]", "[30]"}},
		// NOT IN over a nullable column is NOT EXISTS here, not the
		// NULL-aware "unknown if the subquery holds a NULL".
		{`SELECT x FROM a WHERE k NOT IN (SELECT k FROM b) ORDER BY x`, []string{"[20]"}},
	} {
		if got := queryStrings(t, db, tc.q); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s\n  got  %v\n  want %v", tc.q, got, tc.want)
		}
	}
}

// TestAllocationBudget gates the bytes one warm execution allocates, for
// the statement shapes whose cost is what they materialize: four TPC-H
// joins, a wide sort and a high-cardinality aggregation, at SF 0.01 and
// parallelism 1. TotalAlloc is a count, not a timing — it repeats from
// run to run and machine to machine — so it can gate CI where wall times
// only warn. Each budget is 1.5x what the statement allocated when the
// budget was set; full-width scans and per-batch output allocation
// exceeded every one of them several times over, and hashing the large
// side of a join (FROM-order plans: Q3 1584, Q4 1076, Q12 1783, Q18 4186 KB)
// exceeds the four join budgets. top10 is ORDER BY ... LIMIT over all of
// lineitem: the bounded sort holds 2 048 rows of it, where sorting all
// 60 K and then cutting allocates 3 MB.
func TestAllocationBudget(t *testing.T) {
	db := tpchDB(t, 0.01)
	defer db.Close()
	db.SetParallelism(1)
	text := func(name string) string {
		q, ok := tpch.FindSQL(name)
		if !ok {
			t.Fatalf("no %s", name)
		}
		return q.SQL
	}
	for _, tc := range []struct {
		name, sql string
		budgetKB  uint64
	}{
		{"Q3", text("Q3"), 1245},
		{"Q4", text("Q4"), 828},
		{"Q12", text("Q12"), 723},
		{"Q18", text("Q18"), 2676},
		{"sort_full", `SELECT l_orderkey, l_extendedprice, l_shipdate FROM lineitem
			WHERE l_shipdate >= DATE '1997-01-01' ORDER BY l_extendedprice DESC, l_orderkey`, 1100},
		{"agg_hicard", `SELECT l_orderkey, SUM(l_quantity) AS qty, COUNT(*) AS n FROM lineitem GROUP BY l_orderkey`, 1934},
		{"top10", `SELECT l_orderkey, l_extendedprice, l_shipdate FROM lineitem
			ORDER BY l_extendedprice DESC, l_orderkey LIMIT 10`, 294},
	} {
		drain := func() {
			rows, err := db.QueryContext(context.Background(), tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			for {
				b, err := rows.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					return
				}
			}
		}
		drain() // plan cached, buffer pool warm
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		drain()
		runtime.ReadMemStats(&m1)
		if kb := (m1.TotalAlloc - m0.TotalAlloc) >> 10; kb > tc.budgetKB {
			t.Errorf("%s allocates %d KB per warm execution, budget %d KB", tc.name, kb, tc.budgetKB)
		}
	}
}

// TestDeltaScanAllocationBudget gates what a warm scan of a table with
// live deltas allocates: a ~200 K-row table whose seeded deltas sit in
// the big PDT, under 0, 4 and 12 one-row tail commits. A snapshot scans
// one read layer — the pin's stack folded once, by the warm-up run —
// into one reused batch, and passes batches no delta touches through,
// so the budget is the same for every tail count. Merging each layer
// of the stack into a fresh batch per vector allocated megabytes per
// execution, growing with the tails.
func TestDeltaScanAllocationBudget(t *testing.T) {
	const rows = 3 * 65536 // three row groups
	db := OpenMemory()
	defer db.Close()
	db.SetParallelism(1)
	mustExec(t, db, `CREATE TABLE ev (k BIGINT, d DATE, grp BIGINT, v DOUBLE)`)
	k, d, grp, v := make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]float64, rows)
	for i := range k {
		k[i], d[i], grp[i], v[i] = int64(i), int64(9000+i%2400), int64(i%64), float64(i%1000)/4
	}
	if _, err := db.LoadBatch("ev", []any{k, d, grp, v}, nil); err != nil {
		t.Fatal(err)
	}
	exec := func(text string, args ...any) {
		t.Helper()
		if _, err := db.ExecArgs(text, args...); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	// Deltas in every row group, folded into the big PDT.
	exec(`UPDATE ev SET v = v + 1 WHERE k BETWEEN ? AND ?`, rows-256, rows-1)
	for g := int64(0); g < 3; g++ {
		lo := g * 65536
		exec(`DELETE FROM ev WHERE grp = ? AND k BETWEEN ? AND ?`, lo%64, lo, lo+64*512-1)
	}
	exec(`INSERT INTO ev VALUES (?, DATE '1995-06-17', 1, 2.5), (?, DATE '1995-06-17', 2, 3.5)`, rows, rows+1)
	if err := db.MoveTuples(); err != nil {
		t.Fatal(err)
	}
	const (
		rangeSQL = `SELECT COUNT(*) AS n, SUM(v) AS total FROM ev WHERE k BETWEEN ? AND ?`
		fullSQL  = `SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM ev GROUP BY grp`
	)
	drain := func(text string, args ...any) {
		t.Helper()
		r, err := db.QueryContext(context.Background(), text, args...)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for {
			b, err := r.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				return
			}
		}
	}
	committed := 0
	for _, tails := range []int{0, 4, 12} {
		// One-row commits inside the range the range scan reads.
		for ; committed < tails; committed++ {
			exec(`UPDATE ev SET v = ? WHERE k = ?`, float64(committed), 70_001+committed*97)
		}
		pin, err := db.txm.Pin("ev")
		if err != nil {
			t.Fatal(err)
		}
		if pin.Big.Empty() || len(pin.Tail) != tails {
			t.Fatalf("want a big PDT and %d tails, have %d big entries and %d tails", tails, pin.Big.Len(), len(pin.Tail))
		}
		// Each budget is 1.5x what the statement allocated when it was set.
		for _, q := range []struct {
			name, sql string
			args      []any
			budgetKB  uint64
		}{{"range", rangeSQL, []any{70_000, 90_000}, 160}, {"full", fullSQL, nil, 300}} {
			drain(q.sql, q.args...) // plan cached, pool warm, read layer folded
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			drain(q.sql, q.args...)
			runtime.ReadMemStats(&m1)
			kb := (m1.TotalAlloc - m0.TotalAlloc) >> 10
			t.Logf("%s scan under %d tails: %d KB", q.name, tails, kb)
			if kb > q.budgetKB {
				t.Errorf("%s scan under %d tails allocates %d KB per warm execution, budget %d KB", q.name, tails, kb, q.budgetKB)
			}
		}
	}
}

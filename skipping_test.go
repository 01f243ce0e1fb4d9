package vectorwise

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vectorwise/internal/algebra"
	"vectorwise/internal/storage"
	"vectorwise/internal/testutil"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// buildClusteredDB registers an `events` table of rows sorted by id
// (and by date, which advances every 16 rows), split into many small
// row groups so min/max pruning has something to skip.
func buildClusteredDB(t testing.TB, rows, groupRows int) *DB {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "d", Kind: vtypes.KindDate},
		vtypes.Column{Name: "v", Kind: vtypes.KindF64},
	)
	base, err := vtypes.ParseDate("1994-01-01")
	if err != nil {
		t.Fatal(err)
	}
	b := storage.NewBuilder("events", schema, groupRows)
	for i := 0; i < rows; i++ {
		err := b.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)),
			vtypes.DateValue(base + int64(i/16)),
			vtypes.F64Value(float64(i%97) + 0.25),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	db := OpenMemory()
	db.SetParallelism(1)
	db.RegisterTable(tbl)
	return db
}

// drainStats runs a parametrized statement through the plan-cache path
// and returns its rows plus the statement's own scan counters.
func drainStats(t *testing.T, db *DB, sql string, args ...any) ([]vtypes.Row, storage.ScanStatsSnapshot) {
	t.Helper()
	rows, err := db.QueryContext(context.Background(), sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out []vtypes.Row
	for {
		b, err := rows.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out, rows.ScanStats()
		}
		for i := 0; i < b.N; i++ {
			out = append(out, b.Row(i))
		}
	}
}

// The acceptance shape: a selective parametrized range scan over
// clustered data prunes row groups through the public prepared-
// statement path — on the cold plan and on a plan-cache hit, with the
// bounds resolved from each execution's own arguments.
func TestDataSkippingThroughQuery(t *testing.T) {
	db := buildClusteredDB(t, 10240, 512) // 20 groups
	const q = `SELECT id, v FROM events WHERE id BETWEEN ? AND ?`
	for rep := 0; rep < 2; rep++ { // cold, then plan-cache hit
		rows, st := drainStats(t, db, q, int64(9000), int64(9499))
		if len(rows) != 500 {
			t.Fatalf("rep %d: %d rows, want 500", rep, len(rows))
		}
		if st.GroupsPruned == 0 || st.GroupsScanned > 2 {
			t.Fatalf("rep %d: stats %+v, want most of 20 groups pruned", rep, st)
		}
	}
	if s := db.PlanCacheStats(); s.Hits == 0 {
		t.Fatalf("parametrized re-execution missed the plan cache: %+v", s)
	}
	// Different arguments re-derive the prune bounds: a full-range
	// probe prunes nothing and sees every row.
	rows, st := drainStats(t, db, q, int64(0), int64(10239))
	if len(rows) != 10240 || st.GroupsPruned != 0 {
		t.Fatalf("full range: %d rows, stats %+v", len(rows), st)
	}
	// Pruning off: same rows, all groups decompressed.
	db.SetDataSkipping(false)
	rows, st = drainStats(t, db, q, int64(9000), int64(9499))
	if len(rows) != 500 || st.GroupsPruned != 0 || st.GroupsScanned != 20 {
		t.Fatalf("skipping off: %d rows, stats %+v", len(rows), st)
	}
	// Cumulative counters surfaced at the DB level.
	if agg := db.ScanStats(); agg.GroupsPruned == 0 {
		t.Fatalf("DB cumulative stats missing prunes: %+v", agg)
	}
}

// A NULL bound in a pushed filter is never true (SQL three-valued
// logic): the compiled predicate and the prune function must agree on
// zero rows, whether data skipping is on or off.
func TestDataSkippingNullParam(t *testing.T) {
	db := buildClusteredDB(t, 2048, 256)
	for _, skip := range []bool{true, false} {
		db.SetDataSkipping(skip)
		res, err := db.QueryArgs(`SELECT id FROM events WHERE id > ?`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("skip=%v: x > NULL matched %d rows, want 0", skip, len(res.Rows))
		}
		res, err = db.QueryArgs(`SELECT id FROM events WHERE id BETWEEN ? AND ?`, nil, int64(10))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("skip=%v: NULL between bound matched %d rows, want 0", skip, len(res.Rows))
		}
	}
}

// Literal predicates prune through plain DB.Query too, and EXPLAIN
// renders the extracted filters while ExplainAnalyze reports counters.
func TestDataSkippingExplain(t *testing.T) {
	db := buildClusteredDB(t, 4096, 256) // 16 groups
	plan, err := db.Explain(`SELECT SUM(v) FROM events WHERE d BETWEEN DATE '1994-03-01' AND DATE '1994-03-31'`)
	if err != nil {
		t.Fatal(err)
	}
	if indexOf(plan, "filters=[") < 0 {
		t.Fatalf("EXPLAIN missing scan filters:\n%s", plan)
	}
	out, err := db.ExplainAnalyze(`SELECT SUM(v) FROM events WHERE d BETWEEN DATE '1994-03-01' AND DATE '1994-03-31'`)
	if err != nil {
		t.Fatal(err)
	}
	if indexOf(out, "groups_pruned=") < 0 {
		t.Fatalf("ExplainAnalyze missing counters:\n%s", out)
	}
	var scanned, pruned, n int
	tail := out[indexOf(out, "scan: "):]
	if _, err := fmt.Sscanf(tail, "scan: groups_scanned=%d groups_pruned=%d rows=%d", &scanned, &pruned, &n); err != nil {
		t.Fatalf("unparseable counters %q: %v", tail, err)
	}
	if pruned == 0 || scanned+pruned != 16 {
		t.Fatalf("ExplainAnalyze counters scanned=%d pruned=%d", scanned, pruned)
	}

	// A grouped aggregate annotates its hash-table line too: over the
	// unordered v through the table, over the clustered d by its runs,
	// holding no more than the 256 groups there are.
	for _, c := range []struct{ key, want string }{
		{"v", "hash(agg): keys=table slots="},
		{"d", "hash(agg): keys=runs held=256 slots=0"},
	} {
		out, err = db.ExplainAnalyze(`SELECT ` + c.key + `, SUM(v) FROM events GROUP BY ` + c.key)
		if err != nil {
			t.Fatal(err)
		}
		if indexOf(out, c.want) < 0 || indexOf(out, "probe_max=") < 0 {
			t.Fatalf("ExplainAnalyze missing hash-table counters %q:\n%s", c.want, out)
		}
	}
}

// How a range is spelled does not decide what it prunes: the planner
// simplifies before it pushes filters, so the NOT form of a range skips
// the row groups the plain form skips and returns its rows.
func TestDataSkippingNegatedRange(t *testing.T) {
	db := buildClusteredDB(t, 10240, 512) // 20 groups
	plainRows, plain := drainStats(t, db, `SELECT id, v FROM events WHERE id >= 9000 AND id < 9500`)
	if len(plainRows) != 500 || plain.GroupsPruned < 18 {
		t.Fatalf("plain range: %d rows, stats %+v", len(plainRows), plain)
	}
	for _, q := range []string{
		`SELECT id, v FROM events WHERE NOT (id < 9000) AND NOT (id >= 9500)`,
		`SELECT id, v FROM events WHERE NOT (NOT (id >= 9000 AND id < 9500))`,
	} {
		rows, st := drainStats(t, db, q)
		if st.GroupsPruned != plain.GroupsPruned || st.GroupsScanned != plain.GroupsScanned {
			t.Errorf("%s: stats %+v, the plain range has %+v", q, st, plain)
		}
		if err := testutil.SameRows(q, plainRows, rows); err != nil {
			t.Error(err)
		}
		for _, engine := range []tpch.Engine{tpch.EngineTuple, tpch.EngineMaterialized} {
			rows, _, err := tpch.RunQuery(db.Catalog(), tpch.SQLQuery{Name: "negated", SQL: q}, tpch.RunOptions{Engine: engine})
			if err == nil {
				err = testutil.SameRows(fmt.Sprintf("%s on the %v engine", q, engine), plainRows, rows)
			}
			if err != nil {
				t.Error(err)
			}
		}
	}
}

// With live PDT deltas, groups untouched by deltas still prune and
// results stay row-identical to the unpruned scan — the delta-aware
// half of the tentpole.
func TestDataSkippingWithDeltas(t *testing.T) {
	db := buildClusteredDB(t, 10240, 512)
	// Touch groups 0 (modify), 3 (delete), and append past the end, so
	// deltas live at both edges and the middle stays cold.
	if _, err := db.Exec(`UPDATE events SET v = 1000.5 WHERE id = 37`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DELETE FROM events WHERE id = 1600`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO events VALUES (10240, DATE '2001-01-01', 7.5)`); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		sql        string
		wantPruned bool
	}{
		// Cold middle range: every touched group is elsewhere.
		{`SELECT id, d, v FROM events WHERE id BETWEEN 5000 AND 5999 ORDER BY id`, true},
		// Range overlapping the deleted row's group: that group must
		// merge (and drop id 1600) while its clean neighbors prune.
		{`SELECT id, d, v FROM events WHERE id BETWEEN 1400 AND 2500 ORDER BY id`, true},
		// Range covering the modified row sees the new value.
		{`SELECT id, v FROM events WHERE id BETWEEN 30 AND 40 ORDER BY id`, true},
		// Append is visible to an unbounded tail range.
		{`SELECT id, d, v FROM events WHERE id >= 10000 ORDER BY id`, true},
		// Full scan: nothing prunable, everything merged.
		{`SELECT id, d, v FROM events ORDER BY id`, false},
	}
	for _, q := range queries {
		db.SetDataSkipping(true)
		before := db.ScanStats()
		on, err := db.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		delta := db.ScanStats().GroupsPruned - before.GroupsPruned
		if q.wantPruned && delta == 0 {
			t.Fatalf("%s: expected pruned groups under deltas", q.sql)
		}
		db.SetDataSkipping(false)
		off, err := db.Query(q.sql)
		if err != nil {
			t.Fatalf("%s (off): %v", q.sql, err)
		}
		if len(on.Rows) != len(off.Rows) {
			t.Fatalf("%s: %d rows pruned vs %d unpruned", q.sql, len(on.Rows), len(off.Rows))
		}
		for i := range on.Rows {
			for c := range on.Rows[i] {
				if !on.Rows[i][c].Equal(off.Rows[i][c]) {
					t.Fatalf("%s: row %d col %d differs: %v vs %v", q.sql, i, c, on.Rows[i][c], off.Rows[i][c])
				}
			}
		}
	}
	// Spot-check delta semantics survived the pruned merges.
	db.SetDataSkipping(true)
	res, err := db.Query(`SELECT v FROM events WHERE id = 37`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].F64 != 1000.5 {
		t.Fatalf("modified row through pruned scan: %v %v", res, err)
	}
	res, err = db.Query(`SELECT id FROM events WHERE id = 1600`)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("deleted row resurfaced: %v %v", res, err)
	}
}

// Pruning composed with GroupLo/GroupHi partition scans: parallel plans
// count skipped groups per partition and keep global positions correct
// under live deltas.
func TestDataSkippingParallelWithDeltas(t *testing.T) {
	db := buildClusteredDB(t, 10240, 512)
	if _, err := db.Exec(`DELETE FROM events WHERE id = 100`); err != nil {
		t.Fatal(err)
	}
	db.SetParallelism(4)
	before := db.ScanStats()
	res, err := db.Query(`SELECT COUNT(*), MIN(id), MAX(id) FROM events WHERE id BETWEEN 4000 AND 8191`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].I64 != 4192 || row[1].I64 != 4000 || row[2].I64 != 8191 {
		t.Fatalf("partitioned pruned aggregate: %v", row)
	}
	st := db.ScanStats()
	pruned := st.GroupsPruned - before.GroupsPruned
	scanned := st.GroupsScanned - before.GroupsScanned
	// Groups 7..15 hold ids [3584, 8192) — 9 groups by statistics —
	// and group 0 is pinned by its delete entry, so across all
	// partitions 10 groups scan and 10 prune.
	if scanned != 10 || pruned != 10 {
		t.Fatalf("partitioned counters scanned=%d pruned=%d (want 10/10)", scanned, pruned)
	}
	// And the deleted row stays gone in a partitioned pruned scan that
	// must merge its group.
	res, err = db.Query(`SELECT COUNT(*) FROM events WHERE id BETWEEN 0 AND 511`)
	if err != nil || res.Rows[0][0].I64 != 511 {
		t.Fatalf("partitioned merge over deltas: %v %v", res, err)
	}
}

// BenchmarkDataSkipping measures a Q6-style selective range aggregate
// over clustered data with min/max pruning on vs. off — the ns/op gap
// is the decompression the skipped row groups never paid for. Run by
// the CI bench job next to the streaming-allocation benchmark.
func BenchmarkDataSkipping(b *testing.B) {
	db := buildClusteredDB(b, 131072, 2048) // 64 groups
	stmt, err := db.Prepare(`SELECT SUM(v), COUNT(*) FROM events WHERE d BETWEEN ? AND ?`)
	if err != nil {
		b.Fatal(err)
	}
	// ~6% of the key space: dates advance one day per 16 rows.
	lo, _ := time.Parse("2006-01-02", "1994-06-01")
	hi, _ := time.Parse("2006-01-02", "1994-06-30")
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := stmt.Query(lo, hi)
			if err != nil {
				b.Fatal(err)
			}
			if res.Rows[0][1].I64 != 16*30 {
				b.Fatalf("unexpected count %d", res.Rows[0][1].I64)
			}
		}
	}
	b.Run("PruneOn", func(b *testing.B) {
		db.SetDataSkipping(true)
		run(b)
	})
	b.Run("PruneOff", func(b *testing.B) {
		db.SetDataSkipping(false)
		run(b)
	})
}

// Writes qualify their rows through the same pruned scan a SELECT uses:
// a point UPDATE or DELETE on the clustered key skips the cold groups.
func TestDMLPrunesRowGroups(t *testing.T) {
	db := buildClusteredDB(t, 10240, 512)
	for _, q := range []string{
		`UPDATE events SET v = v + 1 WHERE id = 5000`,
		`DELETE FROM events WHERE id = 7000`,
	} {
		before := db.ScanStats()
		if n, err := db.Exec(q); err != nil || n != 1 {
			t.Fatalf("%s: n=%d err=%v", q, n, err)
		}
		d := db.ScanStats()
		// The target's group always scans; a group still carrying the
		// previous statement's delta cannot be pruned either.
		if scanned, pruned := d.GroupsScanned-before.GroupsScanned, d.GroupsPruned-before.GroupsPruned; scanned > 2 || pruned < 18 {
			t.Fatalf("%s: scanned %d groups, pruned %d; want at most 2 of 20 scanned", q, scanned, pruned)
		}
	}
	db.SetDataSkipping(false)
	before := db.ScanStats()
	if n, err := db.Exec(`DELETE FROM events WHERE id = 9000`); err != nil || n != 1 {
		t.Fatalf("unpruned delete: n=%d err=%v", n, err)
	}
	if d := db.ScanStats(); d.GroupsPruned != before.GroupsPruned {
		t.Fatalf("DELETE pruned %d groups with data skipping off", d.GroupsPruned-before.GroupsPruned)
	}
	if n, err := db.Exec(`DELETE FROM events`); err != nil || n != 10240-2 {
		t.Fatalf("delete all: n=%d err=%v", n, err)
	}
}

// A row group ending in a deleted row, then a clean group pruned away:
// stepping past the deleted row lands the scan after the gap, and the
// rows there must keep their positions and their deltas — for a
// write's row ids and for the SELECT that reads them back.
func TestDeleteBeforePrunedGroup(t *testing.T) {
	db := buildClusteredDB(t, 768, 256)
	mustExec(t, db, `DELETE FROM events WHERE id = 255`)
	mustExec(t, db, `UPDATE events SET v = -1 WHERE id = 600`)
	rows, stats := drainStats(t, db, `SELECT id, v FROM events WHERE id BETWEEN ? AND ?`, 599, 601)
	if stats.GroupsPruned == 0 {
		t.Fatal("the clean middle group was not pruned")
	}
	want := []vtypes.Row{
		{vtypes.I64Value(599), vtypes.F64Value(599%97 + 0.25)},
		{vtypes.I64Value(600), vtypes.F64Value(-1)},
		{vtypes.I64Value(601), vtypes.F64Value(601%97 + 0.25)},
	}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", rows, want)
	}
	// Unpruned, the scan reads the rows at the positions the write
	// addressed: an off-by-one on both sides of the gap cancels above.
	db.SetDataSkipping(false)
	if rows, _ := drainStats(t, db, `SELECT id, v FROM events WHERE id BETWEEN ? AND ?`, 599, 601); fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("unpruned: got %v, want %v", rows, want)
	}
}

// The row ids a RowID scan emits are the positions tx.Delete and
// tx.Update address, whatever sits between the scan and the stable
// image: nothing, pruned row-group gaps under a delta layer, or two
// stacked layers. Cross-check: write through the emitted RIDs and
// compare the table with a model keyed by id.
func TestRowIDScanAddressesDeltaPositions(t *testing.T) {
	const rows = 4096
	probe := []int64{5, 2000, 4000} // groups 0, 7 and 15 of 16
	in := &algebra.In{In: &algebra.ColRef{Idx: 0, K: vtypes.KindI64}}
	for _, id := range probe {
		in.List = append(in.List, vtypes.I64Value(id))
	}
	plan := &algebra.ScanNode{
		Table:   "events",
		Cols:    []int{0},
		Out:     vtypes.NewSchema(vtypes.Column{Name: "id", Kind: vtypes.KindI64}, vtypes.RowIDColumn),
		Filters: []algebra.Scalar{in},
		RowID:   true,
	}
	states := []struct {
		name  string
		setup []string
	}{
		{"no deltas", nil},
		{"pruned gaps", []string{`DELETE FROM events WHERE id = 3 OR id = 2010`}},
		{"two stacked layers", []string{
			`DELETE FROM events WHERE id = 3`,
			`DELETE FROM events WHERE id BETWEEN 1000 AND 1009`,
		}},
	}
	for _, st := range states {
		for _, del := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/delete=%v", st.name, del), func(t *testing.T) {
				db := buildClusteredDB(t, rows, 256)
				for _, q := range st.setup {
					mustExec(t, db, q)
				}
				want, err := db.Query(`SELECT id, v FROM events ORDER BY id`)
				if err != nil {
					t.Fatal(err)
				}

				db.mu.Lock()
				cur, err := db.openRowsLocked(context.Background(), plan)
				if err != nil {
					db.mu.Unlock()
					t.Fatal(err)
				}
				var rids []int64
				for cur.Next() {
					var id, rid int64
					if err := cur.Scan(&id, &rid); err != nil {
						t.Fatal(err)
					}
					rids = append(rids, rid)
				}
				if cur.Err() != nil || len(rids) != len(probe) {
					t.Fatalf("row-id scan: rids %v, err %v", rids, cur.Err())
				}
				// The probed groups scan, plus any unprobed group a delta
				// touches; the rest are gaps the RIDs must count across.
				if st := cur.ScanStats(); st.GroupsPruned < 12 {
					t.Fatalf("row-id scan pruned %d of 16 groups, want at least 12", st.GroupsPruned)
				}
				tx, err := db.txm.Begin("events")
				if err != nil {
					t.Fatal(err)
				}
				for i, rid := range rids {
					if del {
						err = tx.Delete(rid - int64(i))
					} else {
						err = tx.Update(rid, 2, vtypes.F64Value(-1))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				err = db.refreshLayers("events")
				db.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}

				got, err := db.Query(`SELECT id, v FROM events ORDER BY id`)
				if err != nil {
					t.Fatal(err)
				}
				hit := map[int64]bool{}
				for _, id := range probe {
					hit[id] = true
				}
				g := 0
				for _, w := range want.Rows {
					if hit[w[0].I64] {
						if del {
							continue
						}
						w[1] = vtypes.F64Value(-1)
					}
					if g >= len(got.Rows) || !got.Rows[g][0].Equal(w[0]) || !got.Rows[g][1].Equal(w[1]) {
						t.Fatalf("after writing through rids %v: row %d differs from model row %v", rids, g, w)
					}
					g++
				}
				if g != len(got.Rows) {
					t.Fatalf("engine has %d rows, model %d", len(got.Rows), g)
				}
			})
		}
	}
}

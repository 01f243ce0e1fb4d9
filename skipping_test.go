package vectorwise

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"vectorwise/internal/algebra"
	"vectorwise/internal/pdt"
	"vectorwise/internal/plancache"
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

// scanFilter plans q and returns the conjuncts of the Select directly
// over its scan — the scan's filter — split into those
// algebra.ReadInterval reads, which the scan's Skip reads, and the
// residual ones, each rendered. ok is false when no Select sits directly
// over a scan.
func scanFilter(t *testing.T, db *DB, q string) (read, residual []string, ok bool) {
	t.Helper()
	db.mu.RLock()
	cs, err := db.getStmtLocked(plancache.Normalize(q), false)
	db.mu.RUnlock()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var walk func(n algebra.Node)
	walk = func(n algebra.Node) {
		if sel, isSel := n.(*algebra.SelectNode); isSel && !ok {
			if _, ok = sel.Input.(*algebra.ScanNode); ok {
				conj := []algebra.Scalar{sel.Pred}
				if and, isAnd := sel.Pred.(*algebra.And); isAnd {
					conj = and.Preds
				}
				for _, c := range conj {
					if _, sarg := algebra.ReadInterval(c); sarg {
						read = append(read, c.String())
					} else {
						residual = append(residual, c.String())
					}
				}
			}
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(cs.plan)
	return read, residual, ok
}

// Literal predicates prune through plain DB.Query too: the scan's Skip
// reads both bounds of the BETWEEN, and ExplainAnalyze reports counters,
// the rows a search of the sorted d chunks skipped among them.
func TestDataSkippingExplain(t *testing.T) {
	db := buildClusteredDB(t, 4096, 256) // 16 groups
	read, residual, ok := scanFilter(t, db, `SELECT SUM(v) FROM events WHERE d BETWEEN DATE '1994-03-01' AND DATE '1994-03-31'`)
	if !ok || fmt.Sprint(read) != "[(#0 >= 1994-03-01) (#0 <= 1994-03-31)]" || residual != nil {
		t.Fatalf("scan filter reads %q and leaves %q, want both bounds read and no residual", read, residual)
	}
	out, err := db.ExplainAnalyze(`SELECT SUM(v) FROM events WHERE d BETWEEN DATE '1994-03-01' AND DATE '1994-03-31'`)
	if err != nil {
		t.Fatal(err)
	}
	if indexOf(out, "groups_pruned=") < 0 {
		t.Fatalf("ExplainAnalyze missing counters:\n%s", out)
	}
	var scanned, pruned, skipped, n int
	tail := out[indexOf(out, "scan: "):]
	if _, err := fmt.Sscanf(tail, "scan: groups_scanned=%d groups_pruned=%d rows_skipped=%d rows=%d", &scanned, &pruned, &skipped, &n); err != nil {
		t.Fatalf("unparseable counters %q: %v", tail, err)
	}
	// March is 31 days of 16 rows; the search reads only those rows of
	// the groups the statistics keep.
	if pruned == 0 || scanned+pruned != 16 || skipped != scanned*256-31*16 {
		t.Fatalf("ExplainAnalyze counters scanned=%d pruned=%d rows_skipped=%d", scanned, pruned, skipped)
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

// A full scan's GROUP BY on a small-range BIGINT key — the update
// benchmark's ev table, 64 groups, with live deltas — groups through the
// code cache, and EXPLAIN ANALYZE says so: keys=codes, with the hash table
// behind the cache holding every group.
func TestExplainAnalyzeSmallIntKeys(t *testing.T) {
	db := OpenMemory()
	db.SetParallelism(1)
	if _, err := db.Exec(`CREATE TABLE ev (k BIGINT, d DATE, grp BIGINT, v DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	const n = 5000
	k, d, grp, v := make([]int64, n), make([]int64, n), make([]int64, n), make([]float64, n)
	for i := range n {
		k[i], d[i], grp[i], v[i] = int64(i), vtypes.MustParseDate("1995-06-17")+int64(i%2400), int64(i%64), float64(i%1000)/4
	}
	if _, err := db.LoadBatch("ev", []any{k, d, grp, v}, nil); err != nil {
		t.Fatal(err)
	}
	for _, dml := range []string{
		`INSERT INTO ev VALUES (5000, DATE '1995-06-17', 8, 2.5), (5001, DATE '1995-06-17', 900, 1.0)`,
		`UPDATE ev SET grp = -7 WHERE k = 1200`,
		`UPDATE ev SET v = v + 1 WHERE k BETWEEN 3000 AND 3100`,
		`DELETE FROM ev WHERE k = 4000`,
	} {
		if _, err := db.Exec(dml); err != nil {
			t.Fatal(err)
		}
	}
	out, err := db.ExplainAnalyze(`SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM ev GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if indexOf(out, "hash(agg): keys=codes slots=") < 0 || indexOf(out, "entries=66 ") < 0 {
		t.Fatalf("ExplainAnalyze does not show the code cache's 66 groups:\n%s", out)
	}
}

// How a range is spelled does not decide what it prunes: the planner
// simplifies before it pushes filters, so the NOT form of a range skips
// the row groups the plain form skips and returns its rows.
// A DOUBLE chunk holding a NaN carries no statistics, and a NaN literal
// bounds nothing: neither may let pruning change an answer. The first
// table's one group starts with a NaN, whose comparisons once made its
// min and max NaN; the second is checked against `x <> NaN`.
func TestDataSkippingNaN(t *testing.T) {
	table := func(name string, vals ...float64) *DB {
		b := storage.NewBuilder(name, vtypes.NewSchema(vtypes.Column{Name: "x", Kind: vtypes.KindF64}), 64)
		for _, v := range vals {
			if err := b.AppendRow(vtypes.Row{vtypes.F64Value(v)}); err != nil {
				t.Fatal(err)
			}
		}
		tbl, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		db := OpenMemory()
		db.RegisterTable(tbl)
		return db
	}
	oneToTen := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	nan := table("n", append([]float64{math.NaN()}, oneToTen...)...)
	plain := table("n", oneToTen...)
	for _, c := range []struct {
		db    *DB
		where string
		args  []any
		want  int
	}{
		{nan, "x < 5", nil, 4},
		{nan, "x > 5", nil, 5},
		{nan, "x <> 5", nil, 10},
		{plain, "x <> ?", []any{math.NaN()}, 10},
	} {
		for _, skip := range []bool{true, false} {
			c.db.SetDataSkipping(skip)
			res, err := c.db.QueryArgs("SELECT x FROM n WHERE "+c.where, c.args...)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != c.want {
				t.Errorf("WHERE %s %v, skipping %v: %d rows, want %d", c.where, c.args, skip, len(res.Rows), c.want)
			}
		}
	}
}

// A minus sign before a number is a negative literal, so the scan's Skip
// reads a filter against one like any other constant, and MinInt64 is a
// literal the parser reads.
func TestNegativeLiteralsPush(t *testing.T) {
	db := buildClusteredDB(t, 2048, 256)
	for _, c := range []struct {
		where string
		rows  int
	}{
		{"id > -5", 2048},
		{"v > -1.5", 2048},
		{"id BETWEEN -5 AND 5", 6},
		{"id IN (-1, 1)", 1},
		{"id < -9223372036854775808", 0},
	} {
		q := `SELECT id FROM events WHERE ` + c.where
		if read, residual, ok := scanFilter(t, db, q); !ok || len(read) == 0 || residual != nil {
			t.Errorf("%s: the scan's Skip reads %q, leaving %q", q, read, residual)
		}
		if res, err := db.Query(q); err != nil || len(res.Rows) != c.rows {
			t.Errorf("%s: %v rows, want %d (%v)", q, res, c.rows, err)
		}
	}
	mustExec(t, db, `CREATE TABLE m (k BIGINT)`)
	mustExec(t, db, `INSERT INTO m VALUES (-9223372036854775808), (-5)`)
	res, err := db.Query(`SELECT k, -9223372036854775808 AS lit, - 5 AS spaced, -0.0 AS zero FROM m WHERE k = -9223372036854775808`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I64 != math.MinInt64 || res.Rows[0][1].I64 != math.MinInt64 ||
		res.Rows[0][2].I64 != -5 || math.Signbit(res.Rows[0][3].F64) {
		t.Fatalf("MinInt64 round trip, or -0.0 not read as 0 - 0.0: %v %v", res, err)
	}
}

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

// With live PDT deltas, refuted row groups still prune and results stay
// row-identical to the unpruned scan. A group stays scanned only when a
// delta modifies a filter column inside it; its inserts are emitted from
// the skipped range, its deletes and other modifications only counted.
func TestDataSkippingWithDeltas(t *testing.T) {
	t.Run("edges", func(t *testing.T) {
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
	})

	// Every group carries a delete and a modification of v, and rows are
	// appended: a point and a range query still read only their groups,
	// and a range over the appended keys reads none.
	t.Run("every group touched", func(t *testing.T) {
		db := buildClusteredDB(t, 10240, 512) // 20 groups
		for g := 0; g < 20; g++ {
			mustExec(t, db, fmt.Sprintf(`UPDATE events SET v = v + 100 WHERE id = %d`, g*512+7))
			mustExec(t, db, fmt.Sprintf(`DELETE FROM events WHERE id = %d`, g*512+11))
		}
		mustExec(t, db, `INSERT INTO events VALUES (20000, DATE '2001-01-01', 1.5), (20001, DATE '2001-01-02', 2.5), (5130, DATE '1994-01-01', 3.5)`)
		for _, q := range []struct {
			sql     string
			scanned int64
			rows    int
		}{
			{`SELECT id, v FROM events WHERE id = 5127`, 1, 1},                  // group 10's modified row
			{`SELECT id, v FROM events WHERE id = 5130`, 1, 2},                  // a stable row and an appended twin
			{`SELECT id, v FROM events WHERE id BETWEEN 6000 AND 6500`, 2, 500}, // groups 11 and 12, one row deleted
			{`SELECT id, v FROM events WHERE id >= 20000`, 0, 2},                // only the appended rows
		} {
			db.SetDataSkipping(true)
			on, st := drainStats(t, db, q.sql)
			if st.GroupsScanned != q.scanned || st.GroupsPruned != 20-q.scanned || len(on) != q.rows {
				t.Errorf("%s: %d rows, stats %+v; want %d rows, %d of 20 groups scanned", q.sql, len(on), st, q.rows, q.scanned)
			}
			db.SetDataSkipping(false)
			off, _ := drainStats(t, db, q.sql)
			if err := testutil.SameRows(q.sql, off, on); err != nil {
				t.Error(err)
			}
		}
	})

	// A modification of the filter column can make a refuted group
	// match: its group is scanned, and the new value found, while a
	// modification of another column elsewhere does not pin a group.
	t.Run("filter column modified", func(t *testing.T) {
		db := buildClusteredDB(t, 10240, 512)
		mustExec(t, db, `UPDATE events SET id = 99999 WHERE id = 3000`)
		mustExec(t, db, `UPDATE events SET v = -1 WHERE id = 8000`)
		rows, st := drainStats(t, db, `SELECT id, d FROM events WHERE id = ?`, 99999)
		if len(rows) != 1 || rows[0][1].I64 != buildDate(t, 3000) || st.GroupsScanned != 1 || st.GroupsPruned != 19 {
			t.Fatalf("modified key: rows %v, stats %+v; want stable 3000's row from 1 of 20 groups", rows, st)
		}
		if rows, st := drainStats(t, db, `SELECT id FROM events WHERE id BETWEEN ? AND ?`, 2990, 3010); len(rows) != 20 || st.GroupsScanned != 1 {
			t.Fatalf("around the modified key: %d rows, stats %+v; want 20 rows from 1 group", len(rows), st)
		}
	})

	// A seeded differential over interior inserts (at row-group
	// boundaries too), appends, deletes and modifications of filter and
	// non-filter columns, in one layer and in two stacked layers: random
	// point, range, BETWEEN and IN filters, pruned and unpruned, at
	// parallelism 1-3 and vector sizes 1, 3 and 1024, must return what the
	// tuple-at-a-time engine returns.
	t.Run("seeded layers", func(t *testing.T) {
		var pruned int64
		for trial := int64(0); trial < 3; trial++ {
			rng := rand.New(rand.NewSource(trial + 41))
			db := buildClusteredDB(t, 2048, 128) // 16 groups
			tbl, _, err := db.Catalog().Resolve("events")
			if err != nil {
				t.Fatal(err)
			}
			bottom := randomEventsLayer(t, rng, pdt.New(tbl.Schema(), tbl.Rows()), func(sid int64) int64 { return sid })
			top := randomEventsLayer(t, rng, pdt.New(tbl.Schema(), bottom.VisibleRows()), bottom.StartRID)
			for _, layers := range [][]*pdt.PDT{{bottom}, {bottom, top}} {
				if err := db.Catalog().SetLayers("events", layers); err != nil {
					t.Fatal(err)
				}
				for range 8 {
					q := tpch.SQLQuery{Name: "skip", SQL: `SELECT id, d, v FROM events WHERE ` + randomEventsFilter(rng) + ` ORDER BY id, d, v`}
					label := fmt.Sprintf("trial %d, %d layers: %s", trial, len(layers), q.SQL)
					want, _, err := tpch.RunQuery(db.Catalog(), q, tpch.RunOptions{Engine: tpch.EngineTuple})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for _, par := range []int{1, 2, 3} {
						for _, vec := range []int{1, 3, 1024} {
							for _, noPrune := range []bool{false, true} {
								var st storage.ScanStats
								got, _, err := tpch.RunQuery(db.Catalog(), q, tpch.RunOptions{Parallel: par, VecSize: vec, NoPrune: noPrune, ScanStats: &st})
								if err == nil {
									err = testutil.SameRows(fmt.Sprintf("%s (parallel %d, vector %d, no pruning %v)", label, par, vec, noPrune), want, got)
								}
								if err != nil {
									t.Fatal(err)
								}
								pruned += st.GroupsPruned.Load()
							}
						}
					}
				}
			}
		}
		if pruned == 0 {
			t.Fatal("no row group was pruned: the differential checked nothing")
		}
	})
}

// buildDate is the d value buildClusteredDB gives the row with id i.
func buildDate(t *testing.T, i int64) int64 {
	t.Helper()
	base, err := vtypes.ParseDate("1994-01-01")
	if err != nil {
		t.Fatal(err)
	}
	return base + i/16
}

// randomEventsLayer writes random deltas into p, a PDT over an image of
// the 2048-row, 128-row-group events table: inserts anywhere, at the
// image position of a stable row-group boundary (toImage maps a stable
// position into p's stable coordinates) or appended; deletes; and
// modifications of id and d, which filters read, and of v.
func randomEventsLayer(t *testing.T, rng *rand.Rand, p *pdt.PDT, toImage func(int64) int64) *pdt.PDT {
	t.Helper()
	for op := 0; op < 60; op++ {
		rows := p.VisibleRows()
		var err error
		switch k := rng.Intn(8); {
		case k < 3:
			rid := rng.Int63n(rows + 1)
			switch k {
			case 1:
				rid = p.StartRID(toImage(128 * rng.Int63n(17)))
			case 2:
				rid = rows
			}
			err = p.Insert(rid, vtypes.Row{
				vtypes.I64Value(rng.Int63n(2200) - 50),
				vtypes.DateValue(buildDate(t, rng.Int63n(2200))),
				vtypes.F64Value(float64(rng.Intn(1000)) / 4),
			})
		case k < 5:
			err = p.Delete(rng.Int63n(rows))
		case k == 5:
			err = p.Modify(rng.Int63n(rows), 0, vtypes.I64Value(rng.Int63n(2200)-50))
		case k == 6:
			err = p.Modify(rng.Int63n(rows), 1, vtypes.DateValue(buildDate(t, rng.Int63n(2200))))
		default:
			err = p.Modify(rng.Int63n(rows), 2, vtypes.F64Value(-1))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// randomEventsFilter returns a random prunable filter on id or d.
func randomEventsFilter(rng *rand.Rand) string {
	col, lit := "id", func(x int64) string { return fmt.Sprint(x) }
	if rng.Intn(3) == 0 {
		col, lit = "d", func(x int64) string {
			base, _ := vtypes.ParseDate("1994-01-01")
			return "DATE '" + vtypes.FormatDate(base+x/16) + "'"
		}
	}
	a := rng.Int63n(2200) - 50
	b := a + rng.Int63n(300)
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("%s = %s", col, lit(a))
	case 1:
		return fmt.Sprintf("%s %s %s", col, []string{"<", "<=", ">", ">="}[rng.Intn(4)], lit(a))
	case 2:
		return fmt.Sprintf("%s >= %s AND %s < %s", col, lit(a), col, lit(b))
	case 3:
		return fmt.Sprintf("%s BETWEEN %s AND %s", col, lit(a), lit(b))
	default:
		return fmt.Sprintf("%s IN (%s, %s, %s)", col, lit(a), lit(b), lit(rng.Int63n(2200)))
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
	// Groups 7..15 hold ids [3584, 8192): 9 groups scan by statistics.
	// A delete leaves a refuted group refuted, so group 0 skips with
	// the other 10, across all partitions.
	if scanned != 9 || pruned != 11 {
		t.Fatalf("partitioned counters scanned=%d pruned=%d (want 9/11)", scanned, pruned)
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
// is the decompression the skipped row groups never paid for — and on
// a table whose every group holds a delete and a modification of v,
// with a few hundred appended rows: the deltas cost their own merge,
// not the pruning, and the sub-benchmark fails unless each query still
// scans one of the 64 groups. SearchOn runs a point and a 1 % range on
// the clustered id, which a binary search of its sorted chunks narrows
// inside the groups pruning keeps; it fails unless the search skipped
// rows. Run by the CI bench job next to the streaming-allocation
// benchmark.
func BenchmarkDataSkipping(b *testing.B) {
	// ~6% of the key space: dates advance one day per 16 rows.
	lo, _ := time.Parse("2006-01-02", "1994-06-01")
	hi, _ := time.Parse("2006-01-02", "1994-06-30")
	prepare := func(b *testing.B, db *DB) *Stmt {
		stmt, err := db.Prepare(`SELECT SUM(v), COUNT(*) FROM events WHERE d BETWEEN ? AND ?`)
		if err != nil {
			b.Fatal(err)
		}
		return stmt
	}
	run := func(b *testing.B, stmt *Stmt) {
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
	db := buildClusteredDB(b, 131072, 2048) // 64 groups
	stmt := prepare(b, db)
	b.Run("PruneOn", func(b *testing.B) {
		db.SetDataSkipping(true)
		run(b, stmt)
	})
	b.Run("PruneOff", func(b *testing.B) {
		db.SetDataSkipping(false)
		run(b, stmt)
	})
	b.Run("SearchOn", func(b *testing.B) {
		db.SetDataSkipping(true)
		point, err := db.Prepare(`SELECT v FROM events WHERE id = ?`)
		if err != nil {
			b.Fatal(err)
		}
		rng, err := db.Prepare(`SELECT SUM(v), COUNT(*) FROM events WHERE id BETWEEN ? AND ?`)
		if err != nil {
			b.Fatal(err)
		}
		before := db.ScanStats()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := int64(i*7919) % 131072
			res, err := point.Query(id)
			if err != nil || len(res.Rows) != 1 {
				b.Fatalf("point %d: %v %v", id, res, err)
			}
			lo := id % (131072 - 1311)
			res, err = rng.Query(lo, lo+1310)
			if err != nil || res.Rows[0][1].I64 != 1311 {
				b.Fatalf("range from %d: %v %v", lo, res, err)
			}
		}
		if skipped := db.ScanStats().RowsSkipped - before.RowsSkipped; skipped == 0 {
			b.Fatal("the searches skipped no row")
		}
	})
	b.Run("PruneOnDeltas", func(b *testing.B) {
		db := buildClusteredDB(b, 131072, 2048)
		// Rows 7 and 11 of every group lie outside the June range.
		var stmts []string
		for g := 0; g < 64; g++ {
			stmts = append(stmts,
				fmt.Sprintf(`UPDATE events SET v = -1 WHERE id = %d`, g*2048+11),
				fmt.Sprintf(`DELETE FROM events WHERE id = %d`, g*2048+7))
		}
		ins := []byte(`INSERT INTO events VALUES `)
		for i := 0; i < 300; i++ {
			if i > 0 {
				ins = append(ins, ", "...)
			}
			ins = fmt.Appendf(ins, "(%d, DATE '2001-01-01', 0.5)", 131072+i)
		}
		for _, q := range append(stmts, string(ins)) {
			if _, err := db.Exec(q); err != nil {
				b.Fatalf("%s: %v", q, err)
			}
		}
		stmt := prepare(b, db)
		before := db.ScanStats()
		b.ResetTimer()
		run(b, stmt)
		st := db.ScanStats()
		if scanned, pruned := st.GroupsScanned-before.GroupsScanned, st.GroupsPruned-before.GroupsPruned; scanned != int64(b.N) || pruned != 63*int64(b.N) {
			b.Fatalf("%d queries scanned %d and pruned %d groups; want 1 and 63 each", b.N, scanned, pruned)
		}
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
		// Only the target's group scans: the previous statement's
		// delta, a modification of v, leaves its group refuted. Inside
		// it the search reads the one row, well under one vector.
		if scanned, pruned := d.GroupsScanned-before.GroupsScanned, d.GroupsPruned-before.GroupsPruned; scanned != 1 || pruned != 19 {
			t.Fatalf("%s: scanned %d groups, pruned %d; want 1 of 20 scanned", q, scanned, pruned)
		}
		if read := 512 - (d.RowsSkipped - before.RowsSkipped); read > 1 {
			t.Fatalf("%s: read %d rows of the target's group, want 1", q, read)
		}
	}
	db.SetDataSkipping(false)
	before := db.ScanStats()
	if n, err := db.Exec(`DELETE FROM events WHERE id = 9000`); err != nil || n != 1 {
		t.Fatalf("unpruned delete: n=%d err=%v", n, err)
	}
	if d := db.ScanStats(); d.GroupsPruned != before.GroupsPruned || d.RowsSkipped != before.RowsSkipped {
		t.Fatalf("DELETE pruned %d groups and searched past %d rows with data skipping off",
			d.GroupsPruned-before.GroupsPruned, d.RowsSkipped-before.RowsSkipped)
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
	plan := &algebra.SelectNode{Input: &algebra.ScanNode{
		Table: "events",
		Cols:  []int{0},
		Out:   vtypes.NewSchema(vtypes.Column{Name: "id", Kind: vtypes.KindI64}, vtypes.RowIDColumn),
		RowID: true,
	}, Pred: in}
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
		// Deletes and modifications of v in groups the probe skips, and
		// appended rows after the last group: the RIDs count across them.
		{"skipped groups with entries", []string{
			`UPDATE events SET v = -5 WHERE id IN (300, 1500, 3000)`,
			`DELETE FROM events WHERE id = 700 OR id = 2500 OR id = 6`,
			`INSERT INTO events VALUES (4100, DATE '2001-01-01', 1.5), (4101, DATE '2001-01-02', 2.5)`,
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
				// Only the probed groups scan; the rest are gaps the RIDs
				// must count across, whatever deltas they hold.
				if st := cur.ScanStats(); st.GroupsPruned != 13 {
					t.Fatalf("row-id scan pruned %d of 16 groups, want 13", st.GroupsPruned)
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

package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/vtypes"
)

// updateScan is the writes-beside-reads workload: a disk-backed database
// (WAL, one fsync per commit, default background tuple mover), a table
// clustered on its key that always carries live deltas, and two clients
// that write disjoint key residues while both scan the whole table.
//
// Why: txn, wal, pdt, the mover and the DML path do the work, and scans
// run through MergeScan with live deltas — the storage and core layers of
// scan_agg, used differently. fsync latency is the sandbox's, not a
// device's.
type updateScan struct {
	cfg config
	n   int64 // stable rows of ev at load time
	dir string
	db  *vectorwise.DB

	// The driver-side model of ev, indexed by key. Client c only ever
	// touches keys with k%2 == c, so the two clients never share an index.
	live []bool
	val  []float64

	checkpointMs float64
	reopenMs     float64
}

const (
	usInsert = iota
	usUpdatePoint
	usDeletePoint
	usRangeDelta
	usScanDelta
)

var updateScanKinds = []string{"insert", "update_point", "delete_point", "range_delta", "scan_delta"}

// updateScanMix is each client's statement count per kind per round.
var updateScanMix = []struct{ kind, count int }{
	{usInsert, 60}, {usUpdatePoint, 2}, {usDeletePoint, 2}, {usRangeDelta, 20}, {usScanDelta, 6},
}

const (
	evRows      = 500_000
	evGroups    = 64 // even, so a group belongs to one client: grp%2 == k%2
	evRangeKeys = 20_000
	// The pre-seeded deltas: 256 + 3 x 2048 + 1792 = 8192 rows.
	evSeedUpdates = 256
	evSeedDeletes = 2048
	evSeedInserts = 1792
	evInsertsOp   = 60
	evMaxRounds   = 36 // the 8192 seeded deltas + 37 rounds x 128 writes stay under the mover's 16384-entry rebuild threshold
	evInsertSlots = 2 * evInsertsOp * (evMaxRounds + 2)

	sqlEvDDL      = `CREATE TABLE %s (k BIGINT, d DATE, grp BIGINT, v DOUBLE)`
	sqlEvInsert   = `INSERT INTO ev VALUES (?, ?, ?, ?)`
	sqlEvUpdate   = `UPDATE ev SET v = ? WHERE k = ?`
	sqlEvDelete   = `DELETE FROM ev WHERE k = ?`
	sqlRangeDelta = `SELECT COUNT(*) AS n, SUM(v) AS total FROM %s WHERE k BETWEEN ? AND ?`
	sqlScanDelta  = `SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM %s GROUP BY grp`
	sqlEvModel    = `SELECT grp, COUNT(*) AS n, SUM(v) AS total, SUM(k) AS ksum FROM ev GROUP BY grp`
)

func newUpdateScan(cfg config) *updateScan {
	return &updateScan{cfg: cfg, n: max(int64(evRows*cfg.scale), 2048)}
}

func (w *updateScan) name() string    { return "update_scan" }
func (w *updateScan) kinds() []string { return updateScanKinds }
func (w *updateScan) clients() int    { return 2 }
func (w *updateScan) maxRounds() int  { return evMaxRounds }

// rangeKeys is the key span of a range_delta, scaled with the table.
func (w *updateScan) rangeKeys() int64 { return max(w.n*evRangeKeys/evRows, 16) }

func (w *updateScan) setup() error {
	// The database lives under the working directory: the benchmark
	// writes nothing outside its checkout.
	dir, err := os.MkdirTemp(".", "tmp-update-scan-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.db, err = vectorwise.Open(dir); err != nil {
		return err
	}
	w.db.SetParallelism(1)

	rng := rand.New(rand.NewPCG(w.cfg.seed, 0xe7))
	n := int(w.n)
	k, d, grp, v := make([]int64, n), make([]int64, n), make([]int64, n), make([]float64, n)
	w.live = make([]bool, n+evInsertSlots+evSeedInserts)
	w.val = make([]float64, n+evInsertSlots+evSeedInserts)
	for i := 0; i < n; i++ {
		k[i], d[i], grp[i] = int64(i), dateLo+rng.Int64N(2400), int64(i%evGroups)
		v[i] = float64(rng.IntN(1_000_000)) / 100
		w.live[i], w.val[i] = true, v[i]
	}
	for _, table := range []string{"ev", "ev_clean"} {
		if _, err := w.db.Exec(fmt.Sprintf(sqlEvDDL, table)); err != nil {
			return err
		}
		if _, err := w.db.LoadBatch(table, []any{k, d, grp, v}, nil); err != nil {
			return err
		}
	}
	return w.seedDeltas()
}

// seedDeltas leaves evSeedDeltas delta rows in ev's PDT through range and
// group DML, so no round scans a delta-free table; it stays under the
// mover's rebuild threshold, so no rebuild fires inside the run. The mix
// is mostly deletes and inserts because a range UPDATE costs about a
// millisecond per row and would dominate set-up.
func (w *updateScan) seedDeltas() error {
	scaled := func(rows int) int64 { return max(int64(float64(rows)*w.cfg.scale), 8) }
	updates, deletes, inserts := scaled(evSeedUpdates), scaled(evSeedDeletes), scaled(evSeedInserts)
	exec := func(want int64, text string, args ...any) error {
		got, err := w.db.ExecArgs(text, args...)
		if err == nil && got != want {
			err = fmt.Errorf("%d rows affected, want %d", got, want)
		}
		if err != nil {
			return fmt.Errorf("seed deltas: %.40s: %w", text, err)
		}
		return nil
	}
	// One range update at the end of the key space.
	if err := exec(updates, `UPDATE ev SET v = v + 1 WHERE k BETWEEN ? AND ?`, w.n-updates, w.n-1); err != nil {
		return err
	}
	for key := w.n - updates; key < w.n; key++ {
		w.val[key]++
	}
	// Three group deletes: every evGroups-th key of a window, one window
	// per third of the table.
	for i := int64(0); i < 3; i++ {
		lo := i * w.n / 3
		hi := lo + deletes*evGroups - 1
		if err := exec(deletes, `DELETE FROM ev WHERE grp = ? AND k BETWEEN ? AND ?`, lo%evGroups, lo, hi); err != nil {
			return err
		}
		for key := lo; key <= hi; key += evGroups {
			w.live[key] = false
		}
	}
	// Multi-row inserts past every key the rounds will insert.
	base := w.n + evInsertSlots
	for done := int64(0); done < inserts; {
		batch := min(inserts-done, 256)
		text := []byte("INSERT INTO ev VALUES ")
		for i := int64(0); i < batch; i++ {
			key := base + done + i
			w.live[key], w.val[key] = true, float64(key%1000)/4
			if i > 0 {
				text = append(text, ',')
			}
			text = fmt.Appendf(text, "(%d, DATE '1995-06-17', %d, %v)", key, key%evGroups, w.val[key])
		}
		if err := exec(batch, string(text)); err != nil {
			return err
		}
		done += batch
	}
	return nil
}

// insertKey is the i-th key client c inserts in round r: past the loaded
// keys, in c's residue class, a pure function of (r, i, c) so planning a
// round twice plans the same statements.
func (w *updateScan) insertKey(r, i, c int) int64 {
	return w.n + int64(2*(r*evInsertsOp+i)+c)
}

func (w *updateScan) plan(r int) [][]op {
	lists := make([][]op, w.clients())
	for c := range lists {
		rng := roundRand(w.cfg.seed, r, c)
		// Point writes pick distinct live keys of this client's residue.
		picked := map[int64]bool{}
		pick := func() int64 {
			for {
				key := 2*rng.Int64N(w.n/2) + int64(c)
				if w.live[key] && !picked[key] {
					picked[key] = true
					return key
				}
			}
		}
		var ops []op
		inserts := 0
		for _, m := range updateScanMix {
			for i := 0; i < m.count; i++ {
				switch m.kind {
				case usInsert:
					key := w.insertKey(r, inserts, c)
					inserts++
					val := float64(rng.IntN(1_000_000)) / 100
					args := []any{key, vtypes.DateValue(dateLo + rng.Int64N(2400)), key % evGroups, val}
					ops = append(ops, w.write(m.kind, sqlEvInsert, args, func() { w.live[key], w.val[key] = true, val }))
				case usUpdatePoint:
					key, val := pick(), float64(rng.IntN(1_000_000))/100
					ops = append(ops, w.write(m.kind, sqlEvUpdate, []any{val, key}, func() { w.val[key] = val }))
				case usDeletePoint:
					key := pick()
					ops = append(ops, w.write(m.kind, sqlEvDelete, []any{key}, func() { w.live[key] = false }))
				case usRangeDelta:
					lo := rng.Int64N(w.n - w.rangeKeys())
					ops = append(ops, w.rangeDelta(lo, lo+w.rangeKeys()-1))
				case usScanDelta:
					ops = append(ops, w.scanDelta())
				}
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		lists[c] = ops
	}
	return lists
}

// write builds an op for a one-row DML statement; apply updates the model
// once the engine acknowledged exactly one row.
func (w *updateScan) write(kind int, text string, args []any, apply func()) op {
	return op{kind: kind, run: func(bool) (int64, error) {
		n, err := w.db.ExecArgs(text, args...)
		if err != nil {
			return 0, err
		}
		if n != 1 {
			return n, fmt.Errorf("%d rows affected, want 1", n)
		}
		apply()
		return n, nil
	}}
}

// rangeDelta and scanDelta check their full result against the model in
// the verified round, where clients run one at a time; with both clients
// writing, a read's snapshot is not reproducible from outside, so timed
// executions check the row count.
func (w *updateScan) rangeDelta(lo, hi int64) op {
	text := fmt.Sprintf(sqlRangeDelta, "ev")
	return op{kind: usRangeDelta, run: func(verify bool) (int64, error) {
		if !verify {
			n, _, err := drain(w.db, text, false, lo, hi)
			if err == nil && n != 1 {
				err = fmt.Errorf("%d rows, want 1", n)
			}
			return n, err
		}
		res, err := w.db.QueryArgs(text, lo, hi)
		if err != nil {
			return 0, err
		}
		var cnt int64
		var sum float64
		for key := lo; key <= hi; key++ {
			if w.live[key] {
				cnt++
				sum += w.val[key]
			}
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I64 != cnt || !closeTo(res.Rows[0][1].AsFloat(), sum, sum) {
			return 1, fmt.Errorf("range_delta [%d,%d]: got %v, model has n=%d total=%.2f", lo, hi, res.Rows, cnt, sum)
		}
		return 1, nil
	}}
}

func (w *updateScan) scanDelta() op {
	text := fmt.Sprintf(sqlScanDelta, "ev")
	return op{kind: usScanDelta, run: func(verify bool) (int64, error) {
		if verify {
			return evGroups, w.modelCheck(w.db)
		}
		n, _, err := drain(w.db, text, false)
		if err == nil && n != evGroups {
			err = fmt.Errorf("%d rows, want %d", n, evGroups)
		}
		return n, err
	}}
}

// modelCheck compares ev, group by group, with the driver-side model:
// row count and key sum exactly, value sum within the float tolerance.
// Only valid while no client is writing.
func (w *updateScan) modelCheck(db *vectorwise.DB) error {
	var cnt, ksum [evGroups]int64
	var sum [evGroups]float64
	for key, ok := range w.live {
		if ok {
			g := key % evGroups
			cnt[g]++
			ksum[g] += int64(key)
			sum[g] += w.val[key]
		}
	}
	res, err := db.Query(sqlEvModel)
	if err != nil {
		return err
	}
	if len(res.Rows) != evGroups {
		return fmt.Errorf("model check: %d groups, want %d", len(res.Rows), evGroups)
	}
	for _, row := range res.Rows {
		g := row[0].I64
		if g < 0 || g >= evGroups {
			return fmt.Errorf("model check: unexpected group %d", g)
		}
		if row[1].I64 != cnt[g] || row[3].I64 != ksum[g] || !closeTo(row[2].AsFloat(), sum[g], math.Abs(sum[g])) {
			return fmt.Errorf("model check: group %d has n=%d total=%.2f ksum=%d, model has n=%d total=%.2f ksum=%d",
				g, row[1].I64, row[2].AsFloat(), row[3].I64, cnt[g], sum[g], ksum[g])
		}
	}
	return nil
}

func (w *updateScan) afterRound() error { return nil }

func (w *updateScan) counters() (map[string]float64, error) {
	mv := w.db.MoverStats()
	fi, err := os.Stat(filepath.Join(w.dir, "vectorwise.wal"))
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"mover_passes": float64(mv.Passes), "mover_folds": float64(mv.Folds),
		"mover_rebuilds": float64(mv.Rebuilds), "mover_retries": float64(mv.Retries),
		"wal_bytes": float64(fi.Size()),
	}, nil
}

// finish is the durability check: with both clients stopped the table
// must equal the model; after a checkpoint, a close and a reopen from the
// files alone it must still equal it (every acknowledged write survived).
func (w *updateScan) finish() error {
	if err := w.modelCheck(w.db); err != nil {
		return err
	}
	start := time.Now()
	if err := w.db.Checkpoint("ev"); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	w.checkpointMs = ms(time.Since(start))
	if err := w.db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	start = time.Now()
	db, err := vectorwise.Open(w.dir)
	w.db = db
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	w.reopenMs = ms(time.Since(start))
	if err := w.modelCheck(db); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	return nil
}

func (w *updateScan) close() {
	if w.db != nil {
		w.db.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

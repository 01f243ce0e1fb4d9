package main

import (
	"fmt"
	"strings"

	vectorwise "vectorwise"
	"vectorwise/internal/storage"
	"vectorwise/internal/tpch"
	"vectorwise/internal/tpchdb"
	"vectorwise/internal/vtypes"
)

// scanAgg is the scan-and-aggregate workload: one embedded client over a
// lineitem that does not fit L2, warm and cold, serial and parallel, with
// a date-clustered twin so min/max pruning has something to prune.
//
// Why: storage, compress and bufmgr do most of the work in the cold kinds
// and none in the warm ones; primitives, expr, scan and aggregation
// dominate the warm kinds; hash tables (4 groups), the SQL front end and
// PDTs do almost nothing.
type scanAgg struct {
	cfg  config
	sf   float64
	db   *vectorwise.DB
	load tpchdb.LoadStats
	li   *storage.Table   // lineitem's stable image, the eviction target
	par  int              // parallelism currently set on db
	rows map[string]int64 // row count of each fixed text, from the warm-up
}

const (
	saQ1 = iota
	saQ6
	saQ6Clustered
	saQ1Par
	saLikeStr
	saQ1Cold
	saQ6Cold
)

var scanAggKinds = []string{"q1", "q6", "q6_clustered", "q1_par", "like_str", "q1_cold", "q6_cold"}

// scanAggMix is how often each warm kind runs per round; the two cold
// kinds follow once each.
var scanAggMix = []struct{ kind, count int }{
	{saQ1, 2}, {saQ6, 6}, {saQ6Clustered, 12}, {saQ1Par, 2}, {saLikeStr, 2},
}

func newScanAgg(cfg config) *scanAgg {
	return &scanAgg{cfg: cfg, sf: sfLarge * cfg.scale, rows: map[string]int64{}}
}

func (w *scanAgg) name() string    { return "scan_agg" }
func (w *scanAgg) kinds() []string { return scanAggKinds }
func (w *scanAgg) maxRounds() int  { return 0 }

func (w *scanAgg) setup() error {
	db, st, err := loadTPCH(w.sf, 1)
	if err != nil {
		return err
	}
	w.db, w.load, w.par = db, st, 1
	ent, err := db.Catalog().Get("lineitem")
	if err != nil {
		return err
	}
	w.li = ent.Table
	return addDateTwin(db, w.li)
}

// addDateTwin loads lineitem_by_date: lineitem's rows in ship-date order,
// so each row group covers a narrow date range.
func addDateTwin(db *vectorwise.DB, li *storage.Table) error {
	ship, err := li.ReadAllColumn(tpch.LShipDate)
	if err != nil {
		return err
	}
	// Counting sort on the day number: stable and linear.
	lo, hi := ship.I64[0], ship.I64[0]
	for _, d := range ship.I64 {
		lo, hi = min(lo, d), max(hi, d)
	}
	counts := make([]int, hi-lo+2)
	for _, d := range ship.I64 {
		counts[d-lo+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	perm := make([]int, len(ship.I64))
	for i, d := range ship.I64 {
		perm[counts[d-lo]] = i
		counts[d-lo]++
	}
	schema := li.Schema()
	cols := make([]any, schema.Len())
	for c := range cols {
		v, err := li.ReadAllColumn(c)
		if err != nil {
			return err
		}
		switch schema.Col(c).Kind.StorageClass() {
		case vtypes.ClassI64:
			cols[c] = permute(v.I64, perm)
		case vtypes.ClassF64:
			cols[c] = permute(v.F64, perm)
		case vtypes.ClassStr:
			cols[c] = permute(v.Str, perm)
		default:
			return fmt.Errorf("lineitem column %d: unexpected kind", c)
		}
	}
	var ddl string
	for _, s := range tpch.DDL() {
		if strings.HasPrefix(s, "CREATE TABLE lineitem ") {
			ddl = strings.Replace(s, "CREATE TABLE lineitem ", "CREATE TABLE lineitem_by_date ", 1)
		}
	}
	if _, err := db.Exec(ddl); err != nil {
		return err
	}
	_, err = db.LoadBatch("lineitem_by_date", cols, nil)
	return err
}

func permute[T any](src []T, perm []int) []T {
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = src[p]
	}
	return out
}

func (w *scanAgg) setPar(p int) func() error {
	return func() error {
		w.db.SetParallelism(p)
		w.par = p
		return nil
	}
}

func (w *scanAgg) evict() error {
	w.db.BufferManager().DropTable(w.li)
	return nil
}

// fixed builds an op for a fixed-text statement: checked against
// golden.json in the warm-up round, by row count in timed rounds.
func (w *scanAgg) fixed(kind int, id, text string) op {
	return fixedOp(w.db, w.cfg.golden, w.sf, w.rows, kind, scanAggKinds[kind], id, text)
}

func (w *scanAgg) plan(r int) [][]op {
	rng := roundRand(w.cfg.seed, r, 0)
	var ops []op
	for _, m := range scanAggMix {
		for i := 0; i < m.count; i++ {
			switch m.kind {
			case saQ1, saQ1Par:
				ops = append(ops, w.fixed(m.kind, "q1", sqlQ1))
			case saQ6:
				ops = append(ops, w.fixed(m.kind, "q6", sqlQ6))
			case saLikeStr:
				ops = append(ops, w.fixed(m.kind, "like_str", sqlLikeStr))
			case saQ6Clustered:
				ops = append(ops, op{kind: m.kind})
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		if ops[i].kind != saQ6Clustered {
			continue
		}
		lo := dateLo + rng.Int64N(dateHi-dateLo-60)
		args := []any{vtypes.DateValue(lo), vtypes.DateValue(lo + 60)}
		ops[i].run = func(verify bool) (int64, error) {
			if verify {
				return checkSeeded(w.db, "q6_clustered", sqlQ6Clustered, args...)
			}
			n, _, err := drain(w.db, sqlQ6Clustered, false, args...)
			if err == nil && n != 1 {
				err = fmt.Errorf("%d rows, want 1", n)
			}
			return n, err
		}
	}
	// q1_par runs at parallelism 2 (Xchg), everything else at 1; the
	// switch is untimed preparation of the first statement that needs it.
	par := w.par
	for i := range ops {
		need := 1
		if ops[i].kind == saQ1Par {
			need = 2
		}
		if need != par {
			ops[i].pre = w.setPar(need)
			par = need
		}
	}
	// The cold kinds: each runs right after lineitem's decompressed
	// chunks were evicted, so it pays decode for every column it reads.
	q1c, q6c := w.fixed(saQ1Cold, "q1", sqlQ1), w.fixed(saQ6Cold, "q6", sqlQ6)
	q1c.pre = func() error { w.setPar(1)(); return w.evict() }
	q6c.pre = w.evict
	return [][]op{append(ops, q1c, q6c)}
}

// afterRound re-warms the buffer pool the cold kinds left half empty, so
// the next round's first warm statements do not pay for it.
func (w *scanAgg) afterRound() error {
	for _, text := range []string{sqlQ1, sqlQ6, sqlLikeStr} {
		if _, _, err := drain(w.db, text, false); err != nil {
			return err
		}
	}
	return nil
}

func (w *scanAgg) counters() (map[string]float64, error) {
	scan, buf := w.db.ScanStats(), w.db.BufferManager().Stats()
	return map[string]float64{
		"groups_scanned": float64(scan.GroupsScanned), "groups_pruned": float64(scan.GroupsPruned),
		"buf_hits": float64(buf.Hits), "buf_io_chunks": float64(buf.IOChunks),
		"buf_io_bytes": float64(buf.IOBytes), "buf_evictions": float64(buf.Evictions),
	}, nil
}

func (w *scanAgg) finish() error { return nil }

func (w *scanAgg) close() {
	if w.db != nil {
		w.db.Close()
	}
}

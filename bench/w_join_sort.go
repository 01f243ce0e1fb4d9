package main

import vectorwise "vectorwise"

// joinSort is the join, high-cardinality aggregation and sort workload:
// one embedded client, parallelism 1, every kind once per round.
//
// Why: hash join build and probe, a 300 K-group aggregation,
// internal/hashtable and core.Sort do the work; the buffer pool is warm so
// compress does nothing, and the front end is under 0.1 % of a statement.
type joinSort struct {
	cfg  config
	sf   float64
	db   *vectorwise.DB
	rows map[string]int64
}

var joinSortKinds = []string{"q3", "q4", "q5", "q10", "q12", "q18", "sort_full", "agg_hicard"}

func newJoinSort(cfg config) *joinSort {
	return &joinSort{cfg: cfg, sf: sfLarge * cfg.scale, rows: map[string]int64{}}
}

func (w *joinSort) name() string    { return "join_sort" }
func (w *joinSort) kinds() []string { return joinSortKinds }
func (w *joinSort) maxRounds() int  { return 0 }

func (w *joinSort) setup() error {
	db, _, err := loadTPCH(w.sf, 1)
	w.db = db
	return err
}

func (w *joinSort) plan(r int) [][]op {
	texts := fixedTexts[sfLarge]
	ops := make([]op, len(joinSortKinds))
	for k, name := range joinSortKinds {
		ops[k] = fixedOp(w.db, w.cfg.golden, w.sf, w.rows, k, name, name, texts[name])
	}
	rng := roundRand(w.cfg.seed, r, 0)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return [][]op{ops}
}

func (w *joinSort) afterRound() error                     { return nil }
func (w *joinSort) counters() (map[string]float64, error) { return nil, nil }
func (w *joinSort) finish() error                         { return nil }

func (w *joinSort) close() {
	if w.db != nil {
		w.db.Close()
	}
}

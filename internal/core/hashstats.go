package core

import (
	"sync"
	"sync/atomic"

	"vectorwise/internal/hashtable"
)

// HashTableStat describes one operator's hash table after a statement
// ran: directory shape, growth and probe-length behavior, plus the time
// the operator spent in its table-bound phase. Surfaced per statement
// through Rows.HashStats / DB.ExplainAnalyze and cumulatively through
// /v1/stats.
type HashTableStat struct {
	// Op is the operator kind: "agg" (HashAggregate group lookup,
	// including set-op dedup) or "join" (HashJoin build+probe).
	Op string `json:"op"`
	// Keys says how the operator's key table resolved keys: "table"
	// through its hash table — an aggregate's hashGrouper or codeGrouper
	// (the code cache sits in front of the same table) or a hash join's
	// build and probe; "runs", an aggregate's runGrouper numbering groups
	// by the runs of its one ordered key; "merge", a join whose build
	// numbers keys by their runs and whose probe merges. The last two
	// allocate no table, so the table fields below are zero. An aggregate
	// without GROUP BY (oneGrouper) records nothing.
	Keys string `json:"keys"`
	// Held is the most groups an aggregate with an ordered key held at
	// once; it emits and forgets finished groups as it goes.
	Held int `json:"held,omitempty"`
	// Slots/Entries/Load/Resizes/ProbeP50/ProbeMax mirror
	// hashtable.Stats at operator close.
	Slots    int     `json:"slots"`
	Entries  int     `json:"entries"`
	Load     float64 `json:"load"`
	Resizes  int     `json:"resizes"`
	ProbeP50 int     `json:"probe_p50"`
	ProbeMax int     `json:"probe_max"`
	// PhaseNs is the table-bound phase: for "agg" the time spent in the
	// grouper, translating rows to group ids and storing new groups'
	// keys (every batch, code-cache batches included), for "join" the
	// whole build-side materialization including table insertion, if
	// any.
	PhaseNs int64 `json:"phase_ns"`
}

// HashStatsSink collects the hash-table stats of every operator in a
// compiled statement. Operators record on Close (exchange subtrees may
// close from worker joins, hence the lock).
type HashStatsSink struct {
	mu    sync.Mutex
	stats []HashTableStat
}

// Record appends one operator's stats.
func (s *HashStatsSink) Record(op, keys string, held int, st hashtable.Stats, phaseNs int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stats = append(s.stats, HashTableStat{
		Op: op, Keys: keys, Held: held, Slots: st.Slots, Entries: st.Entries, Load: st.Load,
		Resizes: st.Resizes, ProbeP50: st.ProbeP50, ProbeMax: st.ProbeMax,
		PhaseNs: phaseNs,
	})
	s.mu.Unlock()
}

// Snapshot returns the recorded stats (copy, safe to retain).
func (s *HashStatsSink) Snapshot() []HashTableStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]HashTableStat, len(s.stats))
	copy(out, s.stats)
	s.mu.Unlock()
	return out
}

// HashStatsTotals accumulates hash-table counters across statements
// (the DB-lifetime form behind /v1/stats, like storage.ScanStats for
// scans). All fields are atomic; the zero value is ready to use.
type HashStatsTotals struct {
	tables   atomic.Int64
	entries  atomic.Int64
	resizes  atomic.Int64
	probeMax atomic.Int64
}

// Add folds one statement's recorded stats into the totals.
func (t *HashStatsTotals) Add(stats []HashTableStat) {
	for _, st := range stats {
		t.tables.Add(1)
		t.entries.Add(int64(st.Entries))
		t.resizes.Add(int64(st.Resizes))
		for {
			cur := t.probeMax.Load()
			if int64(st.ProbeMax) <= cur || t.probeMax.CompareAndSwap(cur, int64(st.ProbeMax)) {
				break
			}
		}
	}
}

// HashStatsTotalsSnapshot is a point-in-time copy of HashStatsTotals.
type HashStatsTotalsSnapshot struct {
	// Tables counts hash-keyed operators (agg + join) that completed.
	Tables int64 `json:"tables"`
	// Entries is the cumulative distinct keys those tables held.
	Entries int64 `json:"entries"`
	// Resizes is the cumulative directory doublings.
	Resizes int64 `json:"resizes"`
	// ProbeMax is the longest probe distance any table observed.
	ProbeMax int64 `json:"probe_max"`
}

// Snapshot returns the current totals.
func (t *HashStatsTotals) Snapshot() HashStatsTotalsSnapshot {
	return HashStatsTotalsSnapshot{
		Tables:   t.tables.Load(),
		Entries:  t.entries.Load(),
		Resizes:  t.resizes.Load(),
		ProbeMax: t.probeMax.Load(),
	}
}

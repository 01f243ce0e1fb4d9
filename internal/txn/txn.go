// Package txn implements Vectorwise's transaction model: snapshot reads
// over layered PDTs, optimistic PDT-based concurrency control, and a
// write-ahead log that records PDTs as they commit (paper §I-B).
//
// Each table's committed state is a stack of immutable layers:
//
//	stable image  →  big PDT  →  tail small PDTs (oldest first)
//
// The stable image is the columnar file, the big PDT is the
// mover-maintained base delta layer, and each commit installs its
// rebased small PDT as a new tail layer. Every layer is immutable once
// published, so a reader pins a consistent snapshot by capturing the
// (stable, big, tails) tuple — commits after the pin only append layers
// on top and never disturb the pinned objects. A transaction's writes
// accumulate in a private small PDT over its snapshot's top image.
//
// Commit, under a short critical section:
//
//  1. validates optimistically — the small PDT's write set, translated
//     down the snapshot stack to stable SIDs, must not intersect the
//     write set of any transaction committed after the snapshot
//     (first-committer-wins);
//  2. rebases the small PDT up through tail layers appended since the
//     snapshot (valid because validation ruled out overlapping
//     positions);
//  3. logs the rebased PDT and a commit marker to the WAL;
//  4. publishes the rebased PDT as the new top tail layer. Publishing is
//     O(own writes) — the big PDT is NOT propagated on the commit path;
//     folding tail layers into it is the background tuple mover's job
//     (InstallFold / InstallStable).
//
// Deltas leave the layer stack one way. A reorganizer pins the table
// (Pin), folds the pinned stack off-line (Pinned.Combined) and either
// installs the fold as the new big PDT (InstallFold) or merges it into a
// fresh stable image (MergeIntoBuilder), stamps the image with the pin's
// Watermark, persists it and installs it (InstallStable). The watermark
// rule: an image is stamped before it is persisted, persisted before it
// is installed, and the WAL is only ever truncated by
// TruncateWALIfClean. Recover skips records at or below a table image's
// watermark, so a crash anywhere on that path replays exactly the
// records the image on disk does not hold. vectorwise.DB's tuple mover,
// Checkpoint and bulk loads are all that one path (mover.go).
//
// Both installs bump the table's base generation; a transaction whose
// snapshot predates a reorganization cannot commit and gets
// ErrStaleSnapshot. The vectorwise.DB layer serializes writers against
// reorganizations with its write lock, so the error never surfaces
// through the SQL API; raw Manager users retry.
package txn

import (
	"errors"
	"fmt"
	"sync"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/wal"
)

// ErrConflict is returned by Commit when optimistic validation fails.
var ErrConflict = errors.New("txn: write-write conflict, transaction aborted")

// ErrClosed is returned when using a finished transaction.
var ErrClosed = errors.New("txn: transaction already committed or aborted")

// ErrStaleSnapshot is returned by Commit when the table's layer stack
// was reorganized (fold or stable-image swap) after the
// transaction pinned its snapshot. The transaction is aborted; the
// caller may retry on a fresh snapshot.
var ErrStaleSnapshot = errors.New("txn: snapshot predates a layer reorganization, transaction aborted")

// maxTailLayers bounds the tail stack between mover runs: a commit that
// would grow the stack past this folds every tail into the big PDT
// inline (an O(big) backstop keeping scan merge chains short even with
// the mover disabled).
const maxTailLayers = 16

// commitInfo records a committed transaction's write set for validation.
type commitInfo struct {
	version uint64
	touched map[int64]struct{}
}

// tableState is the committed state of one table. All layer fields are
// immutable once published — mutations replace fields under Manager.mu,
// they never modify a published *pdt.PDT or *storage.Table in place.
type tableState struct {
	stable *storage.Table
	// big is the mover-maintained base delta layer over stable (empty,
	// never nil, when fully folded).
	big *pdt.PDT
	// tail holds committed small-PDT layers above big, oldest first.
	// Layer i applies to the output image of everything below it.
	tail []*pdt.PDT
	// bigLSN is the highest WAL LSN folded into stable or big; tailLSN
	// parallels tail with each layer's data-record LSN (0 without WAL).
	bigLSN  uint64
	tailLSN []uint64
	// version bumps on every publish; base bumps only on layer
	// reorganizations and fences stale-snapshot commits.
	version uint64
	base    uint64
	commits []commitInfo
}

// topRows returns the visible row count of the table's top image.
func (ts *tableState) topRows() int64 {
	if n := len(ts.tail); n > 0 {
		return ts.tail[n-1].VisibleRows()
	}
	return ts.big.VisibleRows()
}

// Manager owns committed state and the WAL. All Manager methods are
// safe for concurrent use; committed layers are immutable once
// published, so a snapshot pinned by one transaction or cursor is never
// mutated by another's commit.
type Manager struct {
	mu      sync.Mutex
	tables  map[string]*tableState
	log     *wal.Log
	nextTxn uint64
}

// NewManager creates a transaction manager. log may be nil (no
// durability — used by benchmarks isolating CPU costs).
func NewManager(log *wal.Log) *Manager {
	return &Manager{tables: make(map[string]*tableState), log: log, nextTxn: 1}
}

// Register installs t as the complete committed state of a new table:
// empty big PDT, no tails, everything up to the image's applied-LSN
// watermark already in it. An existing table's image is only ever
// replaced through InstallStable.
func (m *Manager) Register(t *storage.Table) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tables[t.Meta.Name] = &tableState{
		stable: t,
		big:    pdt.New(t.Schema(), t.Rows()),
		bigLSN: t.Meta.AppliedLSN,
	}
}

// Recover replays committed WAL records (from wal.Open) onto the
// registered tables, folding each into the big PDT. Records whose LSN
// is at or below the stable image's applied-LSN watermark are already
// materialized in the file and are skipped — this is what makes the
// tuple mover's stable swap crash-safe without atomic WAL truncation.
// Must run after all tables are registered and before any transaction
// starts.
func (m *Manager) Recover(recs []wal.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range wal.CommittedTxns(recs) {
		ts := m.tables[r.Table]
		if ts == nil {
			return fmt.Errorf("txn: WAL references unknown table %q", r.Table)
		}
		if r.LSN <= ts.stable.Meta.AppliedLSN {
			continue
		}
		small, err := pdt.Decode(ts.stable.Schema(), r.Data)
		if err != nil {
			return fmt.Errorf("txn: WAL record LSN %d: %w", r.LSN, err)
		}
		combined, err := pdt.Propagate(ts.big, small)
		if err != nil {
			return fmt.Errorf("txn: WAL replay LSN %d: %w", r.LSN, err)
		}
		ts.big = combined
		ts.bigLSN = r.LSN
		ts.version++
	}
	return nil
}

// snapshot pins one table's committed state.
type snapshot struct {
	stable  *storage.Table
	big     *pdt.PDT
	tail    []*pdt.PDT
	version uint64
	base    uint64
}

// topRows returns the visible row count of the snapshot's top image.
func (s *snapshot) topRows() int64 {
	if n := len(s.tail); n > 0 {
		return s.tail[n-1].VisibleRows()
	}
	return s.big.VisibleRows()
}

// anchorStable translates a position in the snapshot's top image down
// through the layer stack to its stable-image anchor SID — the
// coordinate system shared by all transactions, in which conflicts are
// defined. Both write targets (Del/Mod) and insertion points anchor the
// same way: each layer's InsertionPoint decomposition yields the SID the
// position belongs to in the layer's input image.
func anchorStable(s *snapshot, pos int64) (int64, error) {
	for i := len(s.tail) - 1; i >= 0; i-- {
		sid, _, err := s.tail[i].InsertionPoint(pos)
		if err != nil {
			return 0, err
		}
		pos = sid
	}
	sid, _, err := s.big.InsertionPoint(pos)
	if err != nil {
		return 0, err
	}
	return sid, nil
}

// Txn is an in-flight transaction. A Txn is owned by one goroutine at a
// time — its private write PDT and snapshot map are unsynchronized;
// only the Manager state it touches through snap/Commit is locked.
type Txn struct {
	m      *Manager
	id     uint64
	snaps  map[string]*snapshot
	writes map[string]*pdt.PDT
	done   bool
}

// Begin starts a transaction with a snapshot taken lazily per table.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Txn{m: m, id: m.nextTxn, snaps: make(map[string]*snapshot), writes: make(map[string]*pdt.PDT)}
	m.nextTxn++
	return t
}

// snap pins the table's current committed version on first touch.
func (t *Txn) snap(table string) (*snapshot, error) {
	if s, ok := t.snaps[table]; ok {
		return s, nil
	}
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	ts := t.m.tables[table]
	if ts == nil {
		return nil, fmt.Errorf("txn: unknown table %q", table)
	}
	s := &snapshot{stable: ts.stable, big: ts.big, tail: ts.tail, version: ts.version, base: ts.base}
	t.snaps[table] = s
	return s, nil
}

// small returns the transaction's write PDT for the table.
func (t *Txn) small(table string) (*pdt.PDT, *snapshot, error) {
	s, err := t.snap(table)
	if err != nil {
		return nil, nil, err
	}
	w, ok := t.writes[table]
	if !ok {
		w = pdt.New(s.stable.Schema(), s.topRows())
		t.writes[table] = w
	}
	return w, s, nil
}

// Rows returns the table's visible row count in this transaction.
func (t *Txn) Rows(table string) (int64, error) {
	if t.done {
		return 0, ErrClosed
	}
	w, _, err := t.small(table)
	if err != nil {
		return 0, err
	}
	return w.VisibleRows(), nil
}

// Insert appends a row to the table (visible to this transaction).
func (t *Txn) Insert(table string, row vtypes.Row) error {
	if t.done {
		return ErrClosed
	}
	w, _, err := t.small(table)
	if err != nil {
		return err
	}
	return w.Append(row)
}

// Delete removes the visible row at rid.
func (t *Txn) Delete(table string, rid int64) error {
	if t.done {
		return ErrClosed
	}
	w, _, err := t.small(table)
	if err != nil {
		return err
	}
	return w.Delete(rid)
}

// Update overwrites one column of the visible row at rid.
func (t *Txn) Update(table string, rid int64, col int, val vtypes.Value) error {
	if t.done {
		return ErrClosed
	}
	w, _, err := t.small(table)
	if err != nil {
		return err
	}
	return w.Modify(rid, col, val)
}

// scanSource adapts storage.Scanner to pdt.RowSource.
type scanSource struct{ sc *storage.Scanner }

// Next implements pdt.RowSource.
func (s *scanSource) Next() ([]*vector.Vector, int, error) {
	vecs, _, n, err := s.sc.Next()
	return vecs, n, err
}

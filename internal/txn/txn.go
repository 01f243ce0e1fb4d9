// Package txn implements Vectorwise's transaction model: snapshot reads
// over layered PDTs, positional commits by one writer at a time, and a
// write-ahead log that records PDTs as they commit (paper §I-B).
//
// Each table's committed state is a stack of immutable layers:
//
//	stable image  →  big PDT  →  tail small PDTs (oldest first)
//
// The stable image is the columnar file, the big PDT is the
// mover-maintained base delta layer, and each commit installs its small
// PDT as a new tail layer. Every layer is immutable once published, so a
// reader pins a consistent snapshot by capturing the (stable, big, tails)
// tuple — commits after the pin only append layers on top and never
// disturb the pinned objects.
//
// Writers do not run concurrently: vectorwise.DB runs every transaction,
// from Begin to Commit, under its exclusive write lock. A transaction is
// therefore one statement's writes to one table, accumulated in a private
// small PDT over the table's top image as Begin saw it. Commit, under
// Manager.mu:
//
//  1. refuses with ErrStaleSnapshot if anything was published to the
//     table since Begin — the one-writer rule, checked rather than
//     assumed;
//  2. logs the PDT and a commit marker to the WAL and syncs it;
//  3. publishes the PDT as the new top tail layer, in O(own writes) —
//     folding tail layers into the big PDT is the background tuple
//     mover's job (InstallFold / InstallStable), with an inline fold
//     only past maxTailLayers.
//
// Readers merge one layer, not the stack: an epoch snapshot scans each
// table through its pin's Pinned.Combined, folded once per pin.
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
// Checkpoint and bulk loads are all that one path (mover.go). The
// mover's off-line work runs outside the write lock; only its install
// takes it, so commits and installs never interleave either.
package txn

import (
	"errors"
	"fmt"
	"sync"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/wal"
)

// ErrClosed is returned when using a finished transaction.
var ErrClosed = errors.New("txn: transaction already committed or aborted")

// ErrStaleSnapshot is returned by Commit when the table's layer stack
// changed — another commit, a fold or a stable-image swap — after Begin.
// Writers are serialized, so it signals a caller that broke that rule;
// the transaction is aborted and nothing is logged or published.
var ErrStaleSnapshot = errors.New("txn: table changed since the transaction began, transaction aborted")

// maxTailLayers bounds the tail stack between mover runs: a commit that
// would grow the stack past this folds every tail into the big PDT
// inline (an O(big) backstop keeping scan merge chains short even with
// the mover disabled).
const maxTailLayers = 16

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
	// version bumps on every publish and fences commits; base bumps
	// only on layer reorganizations and fences installs.
	version uint64
	base    uint64
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
// published, so a pin held by a cursor or the mover is never mutated by
// a commit.
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
// registered tables, folding each table's records, in LSN order, into
// its big PDT with one Propagate. Records whose LSN is at or below the
// stable image's applied-LSN watermark are already materialized in the
// file and are skipped — this is what makes the tuple mover's stable
// swap crash-safe without atomic WAL truncation. Must run after all
// tables are registered and before any transaction starts.
func (m *Manager) Recover(recs []wal.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	layers := make(map[string][]*pdt.PDT)
	lastLSN := make(map[string]uint64)
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
		layers[r.Table] = append(layers[r.Table], small)
		lastLSN[r.Table] = r.LSN
	}
	for name, smalls := range layers {
		ts := m.tables[name]
		big, err := pdt.Propagate(ts.big, smalls...)
		if err != nil {
			// The error's layer i is the table's i-th replayed record.
			return fmt.Errorf("txn: WAL replay of table %q: %w", name, err)
		}
		ts.big = big
		ts.bigLSN = lastLSN[name]
		ts.version += uint64(len(smalls))
	}
	return nil
}

// Txn is an in-flight transaction: one table's writes as a private small
// PDT over the table's top image at Begin. A Txn is owned by one
// goroutine at a time; its PDT is unsynchronized.
type Txn struct {
	m       *Manager
	id      uint64
	table   string
	version uint64 // the table's version at Begin
	writes  *pdt.PDT
	done    bool
}

// Begin starts a transaction on table, pinning the table's version and
// top image.
func (m *Manager) Begin(table string) (*Txn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tables[table]
	if ts == nil {
		return nil, fmt.Errorf("txn: unknown table %q", table)
	}
	t := &Txn{m: m, id: m.nextTxn, table: table, version: ts.version, writes: pdt.New(ts.stable.Schema(), ts.topRows())}
	m.nextTxn++
	return t, nil
}

// Insert appends a row to the table (visible to this transaction).
func (t *Txn) Insert(row vtypes.Row) error {
	if t.done {
		return ErrClosed
	}
	for c, v := range row {
		if err := t.notNull(c, v); err != nil {
			return err
		}
	}
	return t.writes.Append(row)
}

// Delete removes the visible row at rid.
func (t *Txn) Delete(rid int64) error {
	if t.done {
		return ErrClosed
	}
	return t.writes.Delete(rid)
}

// Update overwrites one column of the visible row at rid.
func (t *Txn) Update(rid int64, col int, val vtypes.Value) error {
	if t.done {
		return ErrClosed
	}
	if err := t.notNull(col, val); err != nil {
		return err
	}
	return t.writes.Modify(rid, col, val)
}

// notNull refuses a NULL for column col unless it is declared NULL. Every
// SQL write is checked here rather than in the PDT, whose Insert and
// Modify also replay committed layers (pdt.Propagate, at commit and in WAL
// recovery) and take what was logged. A column out of range is the PDT's
// to refuse.
func (t *Txn) notNull(col int, v vtypes.Value) error {
	cols := t.writes.Schema().Cols
	if v.Null && col >= 0 && col < len(cols) && !cols[col].Nullable {
		return &vtypes.NotNullError{Table: t.table, Column: cols[col].Name}
	}
	return nil
}

package vectorwise

// Epoch snapshots: the read side of the concurrency model.
//
// A query pins a dbSnapshot at QueryContext time — an immutable image
// of every table's committed state (stable image + frozen PDT layer
// stack) captured at one commit point, tagged with the data epoch —
// and scans each table through one read layer, the stack folded once
// per pin. The
// cursor then streams against the snapshot with no DB lock held:
// writers commit new PDT layers and the tuple mover reorganizes the
// layer stack freely, because none of that mutates the objects a
// snapshot references (layers are immutable once published; reorgs
// replace fields, never rewrite published PDTs or tables in place).
//
// Snapshots are refcounted and shared: every cursor opened at the same
// epoch holds the same dbSnapshot. A committed-state change retires the
// current snapshot (the next query pins a fresh one); when the last
// cursor on a retired snapshot closes, stable images it was the final
// holder of are evicted from the buffer pool — they can never be
// scanned again.

import (
	"fmt"

	"vectorwise/internal/catalog"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/txn"
)

// dbSnapshot is one pinned epoch. It implements xcompile.Resolver, so
// compiled scans read the pinned layer stacks instead of the live
// catalog. Immutable after construction except for the refcount.
type dbSnapshot struct {
	db    *DB
	epoch uint64
	pins  map[string]*txn.Pinned
	// refs counts holders: the DB itself while the snapshot is current,
	// plus one per open cursor. Guarded by db.snapMu.
	//
	//vw:refcount
	refs int
}

// Resolve implements xcompile.Resolver against the pinned state: the
// stable image and one read layer, the pin's folded stack
// (txn.Pinned.Combined), computed by the first scan of the table at
// this epoch and shared by every later one.
func (s *dbSnapshot) Resolve(name string) (*storage.Table, []*pdt.PDT, error) {
	pin, ok := s.pins[name]
	if !ok {
		return nil, nil, fmt.Errorf("vectorwise: %w %q in snapshot", catalog.ErrUnknownTable, name)
	}
	read, err := pin.Combined()
	if err != nil {
		return nil, nil, err
	}
	if read.Empty() {
		return pin.Stable, nil, nil
	}
	return pin.Stable, []*pdt.PDT{read}, nil
}

// acquireSnapshot returns the current epoch snapshot with an extra
// reference, creating it on first use after a committed-state change.
// Callers hold db.mu (read suffices: creation only reads committed
// state, and snapMu serializes the cur swap).
//
// Lock ordering: db.mu → db.snapMu → internal package mutexes
// (txn.Manager.mu via PinAll); snapMu never acquires db.mu.
//
//vw:owns
func (db *DB) acquireSnapshot() *dbSnapshot {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	if db.cur == nil {
		db.cur = &dbSnapshot{db: db, epoch: db.cat.DataEpoch(), pins: db.txm.PinAll(), refs: 1}
	}
	db.cur.refs++
	return db.cur
}

// invalidateSnapshot bumps the data epoch and retires the current
// snapshot after a committed-state change (commit, fold, swap,
// checkpoint, registration). Open cursors keep streaming their pinned
// epochs; the next query pins fresh state. Callers hold the db.mu
// write lock (the change being published requires it).
func (db *DB) invalidateSnapshot() {
	db.cat.BumpDataEpoch()
	db.snapMu.Lock()
	s := db.cur
	db.cur = nil
	db.snapMu.Unlock()
	if s != nil {
		s.unref()
	}
}

// unref drops one reference; the last holder of a retired snapshot
// reclaims buffer-pool residue of superseded stable images.
func (s *dbSnapshot) unref() {
	db := s.db
	db.snapMu.Lock()
	s.refs--
	dead := s.refs == 0 && db.cur != s
	db.snapMu.Unlock()
	if dead {
		db.reclaimSnapshot(s)
	}
}

// reclaimSnapshot evicts cached chunks of stable images this snapshot
// pinned that are no longer current. The check against the current
// snapshot is best-effort — an older still-live snapshot sharing the
// image merely re-fetches chunks on its next scan; dropping is an
// eviction, never a correctness hazard.
func (db *DB) reclaimSnapshot(s *dbSnapshot) {
	for name, pin := range s.pins {
		if ent, err := db.cat.Get(name); err == nil && ent.Table == pin.Stable {
			continue
		}
		db.snapMu.Lock()
		shared := db.cur != nil && db.cur.pins[name] != nil && db.cur.pins[name].Stable == pin.Stable
		db.snapMu.Unlock()
		if !shared {
			db.buf.DropTable(pin.Stable)
		}
	}
}

// Epoch returns the current data epoch: a monotonic counter bumped on
// every committed-state change (DML commit, tuple-mover fold or swap,
// checkpoint, bulk load, registration). A cursor reports the epoch it
// pinned via [Rows.Epoch]; equal epochs mean identical visible data.
func (db *DB) Epoch() uint64 { return db.cat.DataEpoch() }

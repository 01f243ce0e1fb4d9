package vectorwise

// The tuple mover: the write side's counterpart to epoch snapshots.
// Commits are cheap — each installs its small PDT as a new tail
// layer in O(own writes) — so somebody else must keep the layer stack
// short and the deltas small. That somebody is one function, moveTable,
// in the mold of Vertica's WOS→ROS tuple mover (C-Store 7 Years Later),
// and it is the only way deltas ever become (part of) a stable image:
//
//	pin → Combined ─ few deltas ─→ InstallFold
//	               └ many ──────→ MergeIntoBuilder → Finish → stamp the
//	                              pin's watermark → persist → InstallStable
//	→ refreshLayers → TruncateWALIfClean
//
// A background tick ([DB.SetMoverInterval]) and [DB.MoveTuples] run it
// over every table with the rebuild threshold; [DB.Checkpoint] runs it
// on one table with the rebuild forced; [DB.LoadBatch] and
// [DB.CopyFrom] run it with the rebuild forced and their new rows
// appended to the builder. The order is the durability argument: an
// image is stamped before it is persisted and persisted before it is
// installed, so at every instant the file on disk plus the WAL records
// above its watermark are the committed state, and recovery skips
// exactly what the file absorbed (txn.Manager.Recover). Nothing has to
// be atomic with anything else, and the WAL is only ever truncated by
// TruncateWALIfClean, once no table carries deltas.
//
// The off-line work runs on a pinned, immutable state; the install
// verifies the pin's base generation and abandons when a commit's inline
// fold reorganized the table meanwhile (counted as a retry; the next
// tick starts over). Readers never wait: the write-lock window is a few
// pointer swaps. Reorganizers do wait for each other (db.moveMu): the
// table file is written outside the write lock, and the image persisted
// last must be the image installed last.

import (
	"fmt"
	"time"

	"vectorwise/internal/storage"
	"vectorwise/internal/txn"
)

// DefaultMoverInterval is the tick of the background mover started by
// [Open]. [OpenMemory] starts with the mover stopped; enable it with
// [DB.SetMoverInterval].
const DefaultMoverInterval = time.Second

// DefaultMoverThreshold is the big-PDT entry count past which a mover
// pass rebuilds the stable image.
const DefaultMoverThreshold = 1 << 14

// MoverStats counts tuple-mover outcomes (see [DB.MoverStats]).
type MoverStats struct {
	// Passes counts completed MoveTuples passes (manual and ticked).
	Passes uint64 `json:"passes"`
	// Folds counts tail stacks folded into big PDTs.
	Folds uint64 `json:"folds"`
	// Rebuilds counts stable images rebuilt and swapped in (by the mover,
	// checkpoints and bulk loads alike).
	Rebuilds uint64 `json:"rebuilds"`
	// Retries counts installs abandoned because the table reorganized
	// between the off-line work and the install window.
	Retries uint64 `json:"retries"`
}

// MoverStats returns cumulative tuple-mover counters.
func (db *DB) MoverStats() MoverStats {
	db.moverMu.Lock()
	defer db.moverMu.Unlock()
	return db.moverStats
}

// SetMoverThreshold sets the big-PDT entry count that triggers a
// stable-image rebuild on the next mover pass; n <= 0 disables
// rebuilds (folds still run). Safe to call concurrently.
func (db *DB) SetMoverThreshold(n int) {
	db.moverMu.Lock()
	db.moverThreshold = n
	db.moverMu.Unlock()
}

// SetMoverFailpoint installs a test-only fault hook invoked at named
// stages of moveTable ("fold:<table>", "persist:<table>",
// "swap:<table>") — whoever runs it: a mover pass, a checkpoint or a
// bulk load; a non-nil return aborts at that point. Crash-safety tests
// use it to stop between persisting a rebuilt image and swapping it in,
// then recover from the WAL. The hook runs inside the reorganization it
// interrupts, so it must not start another. Pass nil to clear.
func (db *DB) SetMoverFailpoint(f func(stage string) error) {
	db.moverMu.Lock()
	db.moverFail = f
	db.moverMu.Unlock()
}

func (db *DB) failpoint(stage string) error {
	db.moverMu.Lock()
	f := db.moverFail
	db.moverMu.Unlock()
	if f == nil {
		return nil
	}
	return f(stage)
}

func (db *DB) moverBump(f func(*MoverStats)) {
	db.moverMu.Lock()
	f(&db.moverStats)
	db.moverMu.Unlock()
}

// SetMoverInterval restarts the background tuple mover with the given
// tick; d <= 0 stops it. It must not be called with db.mu held (it
// joins the mover goroutine, which takes db.mu briefly each pass).
// Safe to call concurrently with queries and DML.
func (db *DB) SetMoverInterval(d time.Duration) {
	db.moverMu.Lock()
	stop, done := db.moverStop, db.moverDone
	db.moverStop, db.moverDone = nil, nil
	db.moverMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if d <= 0 {
		return
	}
	stop, done = make(chan struct{}), make(chan struct{})
	db.moverMu.Lock()
	db.moverStop, db.moverDone = stop, done
	db.moverMu.Unlock()
	go db.moverLoop(d, stop, done)
}

// stopMover halts the background mover if running (Close path).
func (db *DB) stopMover() { db.SetMoverInterval(0) }

func (db *DB) moverLoop(d time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// A failing pass (I/O error, failpoint) leaves deltas in
			// place for the next tick; nothing is lost.
			_ = db.MoveTuples()
		}
	}
}

// MoveTuples runs one synchronous tuple-mover pass over every table:
// fold committed tail layers into the big PDT, or rebuild and swap the
// stable image where the deltas have outgrown the threshold. The heavy
// work runs on pinned immutable state without any DB lock; installs take
// the write lock for a few pointer swaps. Tests drive the mover
// deterministically through this instead of the background tick.
func (db *DB) MoveTuples() error {
	db.moverMu.Lock()
	threshold := db.moverThreshold
	db.moverMu.Unlock()
	for _, name := range db.cat.Names() {
		db.moveMu.Lock()
		err := db.moveTable(name, threshold, false, nil)
		db.moveMu.Unlock()
		if err != nil {
			return fmt.Errorf("vectorwise: move %s: %w", name, err)
		}
	}
	db.moverBump(func(s *MoverStats) { s.Passes++ })
	return nil
}

// Checkpoint folds a table's committed deltas (big PDT and all tail
// layers) into a fresh stable image stamped with its applied-LSN
// watermark, persists it (when the DB is disk-backed), and truncates
// the WAL once every table's deltas are materialized: a mover pass over
// one table with the rebuild forced. It holds the DB write lock for the
// duration, so on return every delta committed before the call is in
// the persisted image. Open cursors are unaffected — they stream their
// pinned snapshots.
func (db *DB) Checkpoint(table string) error {
	return db.rebuildTable(table, nil)
}

// rebuildTable is the synchronous form checkpoints and bulk loads share:
// the path with the rebuild forced, under the write lock from pin to
// install, so nothing commits in between.
func (db *DB) rebuildTable(table string, extend func(*storage.Builder) error) error {
	db.moveMu.Lock()
	defer db.moveMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.cat.Get(table); err != nil {
		return err
	}
	return db.moveTable(table, 1, true, extend)
}

// moveTable is the path in the file comment, for one table. The image
// is rebuilt when the folded deltas number at least threshold (<= 0:
// never; 1: whenever there are any) or when extend is set; extend
// appends a bulk load's rows to the builder after the merged base.
// Callers hold db.moveMu. held says the caller also holds db.mu across
// the call (it must when extend is set: rows appended past the pin's
// top image leave no room for tail layers committed in between);
// otherwise moveTable takes it for the install alone.
func (db *DB) moveTable(name string, threshold int, held bool, extend func(*storage.Builder) error) error {
	pin, err := db.txm.Pin(name)
	if err != nil {
		return err
	}
	deltas := pin.Big
	if len(pin.Tail) > 0 {
		if err := db.failpoint("fold:" + name); err != nil {
			return err
		}
		if deltas, err = pin.Combined(); err != nil {
			return err
		}
	}
	var image *storage.Table
	if extend != nil || (threshold > 0 && deltas.Len() >= threshold) {
		b := storage.NewBuilder(name, pin.Stable.Schema(), 0)
		if !deltas.Empty() {
			err = txn.MergeIntoBuilder(b, pin.Stable, deltas)
		} else if pin.Stable.Rows() > 0 {
			// Clean table: adopt the compressed row groups byte-for-byte —
			// repeated loads stay O(bytes copied), nothing is decoded.
			err = b.AppendTable(pin.Stable)
		}
		if err == nil && extend != nil {
			err = extend(b)
		}
		if err != nil {
			return err
		}
		if image, err = b.Finish(); err != nil {
			return err
		}
		// Stamp, persist, install — in that order. A crash in between is
		// safe: the WAL still holds every record, and the watermark makes
		// exactly the absorbed ones inert at recovery, whether the file on
		// disk is still the old image or already the new one.
		image.Meta.AppliedLSN = pin.Watermark()
		if err := db.failpoint("persist:" + name); err != nil {
			return err
		}
		if err := db.persist(image); err != nil {
			return err
		}
		if err := db.failpoint("swap:" + name); err != nil {
			return err
		}
	} else if len(pin.Tail) == 0 {
		// Nothing to fold, too little to rebuild.
		return db.txm.TruncateWALIfClean()
	}

	if !held {
		db.mu.Lock()
	}
	var ok bool
	if image == nil {
		ok = db.txm.InstallFold(name, pin, deltas)
	} else if ok = db.txm.InstallStable(name, pin, image); ok {
		// Every image swap bumps the schema epoch: a cached parallel
		// plan holds row-group ranges of the image it was planned on.
		db.cat.Put(image)
	}
	if ok {
		err = db.refreshLayers(name)
	}
	if !held {
		db.mu.Unlock()
	}
	if err != nil {
		return err
	}
	if !ok {
		// A commit folded the stack inline since the pin. The image just
		// persisted is still a valid one (it holds what its watermark
		// says, and the table still carries deltas, so the log is whole);
		// the next tick starts over.
		db.moverBump(func(s *MoverStats) { s.Retries++ })
		return nil
	}
	db.moverBump(func(s *MoverStats) {
		if len(pin.Tail) > 0 {
			s.Folds++
		}
		if image != nil {
			s.Rebuilds++
		}
	})
	return db.txm.TruncateWALIfClean()
}

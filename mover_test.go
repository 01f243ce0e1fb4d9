package vectorwise

// Tuple-mover tests: deterministic fold/rebuild behavior, and the
// crash-safety windows of the stable-image rebuild. The failpoint hook
// stops a mover pass at a named stage; "crashing" is then just
// abandoning the DB (Close flushes nothing) and reopening from the
// directory, which replays the WAL against whatever stable image the
// interrupted pass left on disk. The recovered state is compared
// against a plain-Go oracle — no delta may be lost or applied twice.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vectorwise/internal/testutil"
	"vectorwise/internal/tupleengine"
)

// moverOracle mirrors kv-table contents: key → value.
type moverOracle map[int64]int64

func (o moverOracle) insert(db *DB, t *testing.T, k, v int64) {
	t.Helper()
	if _, err := db.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d)`, k, v)); err != nil {
		t.Fatal(err)
	}
	o[k] = v
}

func (o moverOracle) update(db *DB, t *testing.T, k, v int64) {
	t.Helper()
	if _, err := db.Exec(fmt.Sprintf(`UPDATE kv SET v = %d WHERE k = %d`, v, k)); err != nil {
		t.Fatal(err)
	}
	if _, ok := o[k]; ok {
		o[k] = v
	}
}

// load bulk-appends n rows with keys from..from+n-1 and returns what
// LoadBatch returned; the oracle takes the rows only on success.
func (o moverOracle) load(db *DB, from, n int64) error {
	ks, vs := make([]int64, n), make([]int64, n)
	for i := range ks {
		ks[i], vs[i] = from+int64(i), -from-int64(i)
	}
	if _, err := db.LoadBatch("kv", []any{ks, vs}, nil); err != nil {
		return err
	}
	for i, k := range ks {
		o[k] = vs[i]
	}
	return nil
}

func (o moverOracle) delete(db *DB, t *testing.T, k int64) {
	t.Helper()
	if _, err := db.Exec(fmt.Sprintf(`DELETE FROM kv WHERE k = %d`, k)); err != nil {
		t.Fatal(err)
	}
	delete(o, k)
}

// verify compares the table, read through a fresh snapshot, against the
// oracle — exact keys, exact values, exact cardinality.
func (o moverOracle) verify(db *DB, t *testing.T, label string) {
	t.Helper()
	res, err := db.Query(`SELECT k, v FROM kv ORDER BY k`)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(res.Rows) != len(o) {
		t.Fatalf("%s: %d rows, oracle has %d", label, len(res.Rows), len(o))
	}
	keys := make([]int64, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		if got := res.Rows[i]; got[0].I64 != k || got[1].I64 != o[k] {
			t.Fatalf("%s: row %d = (%d,%d), oracle (%d,%d)", label, i, got[0].I64, got[1].I64, k, o[k])
		}
	}
}

// moverTestDB opens a disk-backed DB with the mover stopped (tests
// drive it manually) and a kv table of n seeded rows.
func moverTestDB(t *testing.T, dir string, n int) (*DB, moverOracle) {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.SetMoverInterval(0)
	if _, err := db.Exec(`CREATE TABLE kv (k BIGINT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	o := moverOracle{}
	for i := 0; i < n; i++ {
		o.insert(db, t, int64(i), int64(i)*10)
	}
	return db, o
}

// TestMoverFoldAndRebuild drives both mover phases deterministically
// and checks visible data is bit-identical before and after each
// reorganization, including through an open cursor pinned across the
// stable swap.
func TestMoverFoldAndRebuild(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE kv (k BIGINT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	o := moverOracle{}
	for i := 0; i < 200; i++ {
		o.insert(db, t, int64(i), int64(i))
	}
	o.update(db, t, 7, -7)
	o.delete(db, t, 13)

	// Pin a cursor before any mover activity; it must replay the
	// pre-mover state even after fold + rebuild.
	rows, err := db.QueryContext(nil, `SELECT k, v FROM kv ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	preMover := make(moverOracle, len(o))
	for k, v := range o {
		preMover[k] = v
	}

	// Phase 1 only: threshold disabled → fold, no rebuild.
	db.SetMoverThreshold(0)
	if err := db.MoveTuples(); err != nil {
		t.Fatal(err)
	}
	st := db.MoverStats()
	if st.Folds == 0 || st.Rebuilds != 0 {
		t.Fatalf("after fold-only pass: %+v", st)
	}
	o.verify(db, t, "after fold")

	// More DML on top of the folded state, then a rebuild pass.
	o.insert(db, t, 500, 500)
	o.update(db, t, 0, 999)
	db.SetMoverThreshold(1)
	if err := db.MoveTuples(); err != nil {
		t.Fatal(err)
	}
	if st := db.MoverStats(); st.Rebuilds == 0 {
		t.Fatalf("rebuild pass did not rebuild: %+v", st)
	}
	o.verify(db, t, "after rebuild")

	// The pinned cursor still sees the pre-mover epoch exactly.
	var got int
	for rows.Next() {
		var k, v int64
		if err := rows.Scan(&k, &v); err != nil {
			t.Fatal(err)
		}
		want, ok := preMover[k]
		if !ok || want != v {
			t.Fatalf("pinned cursor row (%d,%d) not in pre-mover oracle", k, v)
		}
		got++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if got != len(preMover) {
		t.Fatalf("pinned cursor yielded %d rows, want %d", got, len(preMover))
	}
}

// moverCrashAt runs the shared crash script: seed a disk-backed DB with
// logged deltas, trip the failpoint at the given stage of a stable-image
// rebuild, "crash", reopen, and verify against the oracle. It exercises
// both sides of the applied-LSN watermark: crash before the image
// persists (WAL replays everything onto the old image) and crash after
// (replay skips exactly the absorbed records).
//
// The rebuild is a mover pass, or — load set — a LoadBatch into the
// table. After a failed mover pass the script commits more DML before
// crashing (the image on disk then is a reorganization of what the
// process still serves). A load's image also holds the new rows, and the
// only thing between persisting and installing it is the failpoint, so
// that script crashes at once: the load is then durable or absent,
// whole, and a retry succeeds.
func moverCrashAt(t *testing.T, stage string, load bool) {
	dir := filepath.Join(t.TempDir(), "db")
	db, o := moverTestDB(t, dir, 100)
	o.update(db, t, 5, -5)
	o.delete(db, t, 6)

	db.SetMoverThreshold(1)
	injected := errors.New("injected crash")
	fired := false
	db.SetMoverFailpoint(func(s string) error {
		if s == stage+":kv" {
			fired = true
			return injected
		}
		return nil
	})
	var err error
	if load {
		err = moverOracle{}.load(db, 5000, 50)
	} else {
		err = db.MoveTuples()
	}
	if !errors.Is(err, injected) {
		t.Fatalf("rebuild error = %v, want injected crash", err)
	}
	if !fired {
		t.Fatalf("failpoint %q never fired", stage)
	}
	db.SetMoverFailpoint(nil)

	// The failed rebuild must not have changed what queries see.
	o.verify(db, t, "after failed rebuild")

	if !load {
		// Deltas committed after the interrupted pass land in the WAL with
		// LSNs above the (possibly persisted) image's watermark.
		o.insert(db, t, 1000, 1000)
		o.update(db, t, 10, -10)
		o.delete(db, t, 11)
	} else if stage == "swap" {
		// The persisted image holds the load.
		for k := int64(5000); k < 5050; k++ {
			o[k] = -k
		}
	}

	// Crash: no checkpoint, no flush — just drop the handle.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.SetMoverInterval(0)
	o.verify(db2, t, "recovered after crash at "+stage)

	if load {
		if err := o.load(db2, 6000, 50); err != nil {
			t.Fatalf("load retried after recovery: %v", err)
		}
		o.verify(db2, t, "load retried after recovery")
	}

	// Recovered state must still move and survive a clean cycle.
	db2.SetMoverThreshold(1)
	if err := db2.MoveTuples(); err != nil {
		t.Fatal(err)
	}
	o.verify(db2, t, "mover pass after recovery")
}

// TestMoverCrashBeforePersist crashes before the rebuilt image reaches
// disk: the old image plus a full WAL replay must reproduce the oracle.
func TestMoverCrashBeforePersist(t *testing.T) { moverCrashAt(t, "persist", false) }

// TestMoverCrashBetweenPersistAndSwap crashes in the worst window —
// the new image is durable but was never installed: replay must skip
// exactly the absorbed records (no duplicated deltas) while applying
// the later ones (no lost deltas).
func TestMoverCrashBetweenPersistAndSwap(t *testing.T) { moverCrashAt(t, "swap", false) }

// TestLoadCrashBeforePersist and TestLoadCrashBetweenPersistAndSwap run
// the same windows for a bulk load into a table with logged deltas: the
// load's image folds those deltas in, so it must carry their watermark
// or the reopen replays them onto an image that already holds them.
func TestLoadCrashBeforePersist(t *testing.T)         { moverCrashAt(t, "persist", true) }
func TestLoadCrashBetweenPersistAndSwap(t *testing.T) { moverCrashAt(t, "swap", true) }

// TestMoverPersistSurvivesRestart: the happy path end to end — a
// completed rebuild, then clean reopen; the swapped image's watermark
// must keep replay from double-applying the absorbed deltas.
func TestMoverCompletedRebuildThenReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, o := moverTestDB(t, dir, 80)
	o.update(db, t, 3, 33)
	o.delete(db, t, 4)
	db.SetMoverThreshold(1)
	if err := db.MoveTuples(); err != nil {
		t.Fatal(err)
	}
	if st := db.MoverStats(); st.Rebuilds != 1 {
		t.Fatalf("want exactly one rebuild, got %+v", st)
	}
	// Every table's deltas are in persisted images now, so the pass
	// truncated the log to its reset sentinel (8-byte frame + 17-byte
	// payload): a database that runs on the mover alone stays bounded.
	if fi, err := os.Stat(filepath.Join(dir, "vectorwise.wal")); err != nil || fi.Size() != 25 {
		t.Fatalf("WAL after a pass that left no deltas: %v bytes (err %v), want 25", fi.Size(), err)
	}
	// Post-rebuild deltas stay WAL-only until the next move.
	o.insert(db, t, 2000, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.SetMoverInterval(0)
	o.verify(db2, t, "reopen after completed rebuild")
}

// TestReorganizersPersistInInstallOrder: the mover writes a table file
// outside the write lock, so a checkpoint (or load) of the same table
// must not slip between a pass's pin and its file write — the pass's
// older image would land on disk last, under a log the checkpoint has
// already truncated. The pass is held just before it persists while a
// commit and a checkpoint arrive; after a crash every row must be there.
func TestReorganizersPersistInInstallOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, o := moverTestDB(t, dir, 50)
	db.SetMoverThreshold(1)
	reached, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	db.SetMoverFailpoint(func(s string) error {
		if s == "persist:kv" && first.CompareAndSwap(false, true) {
			close(reached)
			<-release
		}
		return nil
	})
	moved := make(chan error, 1)
	go func() { moved <- db.MoveTuples() }()
	<-reached
	o.insert(db, t, 900, 9) // committed, but not in the image the pass built
	checkpointed := make(chan error, 1)
	go func() { checkpointed <- db.Checkpoint("kv") }()
	select {
	case err := <-checkpointed:
		t.Fatalf("checkpoint (err %v) overtook a mover pass that has yet to persist its image", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-moved; err != nil {
		t.Fatal(err)
	}
	if err := <-checkpointed; err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	o.verify(db2, t, "reopen after a checkpoint raced a mover pass")
}

// TestParallelPlanSurvivesStableRebuild: a parallel plan holds row-group
// ranges of the stable image it was planned on, so every image swap —
// whoever performs it — must make the cached plan unreachable. The
// rebuilt image here has one more group than the plan's ranges cover.
func TestParallelPlanSurvivesStableRebuild(t *testing.T) {
	queries := []string{
		`SELECT COUNT(*), SUM(v) FROM kv`,
		`SELECT k, v FROM kv WHERE k >= 131000 AND v > 0`,
	}
	for _, how := range []string{"mover", "checkpoint"} {
		t.Run(how, func(t *testing.T) {
			db := OpenMemory()
			defer db.Close()
			db.SetParallelism(2)
			mustExec(t, db, `CREATE TABLE kv (k BIGINT, v BIGINT)`)
			const base, added = 131072, 3000 // two full row groups, then the start of a third
			if err := (moverOracle{}).load(db, 0, base); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				if plan, err := db.Explain(q); err != nil || !strings.Contains(plan, "XchgUnion") {
					t.Fatalf("%s: want a parallel plan, got (err %v)\n%s", q, err, plan)
				}
				if _, err := db.Query(q); err != nil { // cached from here on
					t.Fatal(err)
				}
			}
			for lo := base; lo < base+added; lo += 1000 {
				var sb strings.Builder
				sb.WriteString(`INSERT INTO kv VALUES `)
				for k := lo; k < lo+1000; k++ {
					if k > lo {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, "(%d,%d)", k, k)
				}
				mustExec(t, db, sb.String())
			}
			if how == "mover" {
				db.SetMoverThreshold(1)
				if err := db.MoveTuples(); err != nil {
					t.Fatal(err)
				}
			} else if err := db.Checkpoint("kv"); err != nil {
				t.Fatal(err)
			}
			ent, err := db.Catalog().Get("kv")
			if err != nil {
				t.Fatal(err)
			}
			if ent.Table.Rows() != base+added || ent.Table.Groups() < 3 {
				t.Fatalf("rebuild did not grow the image: %d rows, %d groups", ent.Table.Rows(), ent.Table.Groups())
			}
			for _, q := range queries {
				par, err := db.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := tupleengine.Run(planOf(t, db, q), db.Catalog())
				if err != nil {
					t.Fatal(err)
				}
				db.SetParallelism(1)
				serial, err := db.Query(q)
				db.SetParallelism(2)
				if err != nil {
					t.Fatal(err)
				}
				if err := testutil.SameRowsUnordered(q+": parallel vs serial", serial.Rows, par.Rows); err != nil {
					t.Fatal(err)
				}
				if err := testutil.SameRowsUnordered(q+": parallel vs tuple engine", oracle, par.Rows); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

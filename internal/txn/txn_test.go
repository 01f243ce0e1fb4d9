package txn

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/wal"
)

func buildTable(t *testing.T, name string, n int) *storage.Table {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "val", Kind: vtypes.KindStr},
	)
	b := storage.NewBuilder(name, schema, 64)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), vtypes.StrValue(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// begin starts a transaction on table, failing the test on error.
func begin(t *testing.T, m *Manager, table string) *Txn {
	t.Helper()
	tx, err := m.Begin(table)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func pin(t *testing.T, m *Manager) *Pinned {
	t.Helper()
	p, err := m.Pin("t")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scan materializes a pinned table: the stable image merged with the
// pin's layer stack, then extra layers (a transaction's private PDT).
func scan(t *testing.T, p *Pinned, extra ...*pdt.PDT) []vtypes.Row {
	t.Helper()
	schema := p.Stable.Schema()
	cols := make([]int, schema.Len())
	for i := range cols {
		cols[i] = i
	}
	var src pdt.PositionedSource = storage.NewScanner(p.Stable, cols, nil, nil, 16)
	for _, layer := range append(p.Layers(), extra...) {
		src = pdt.NewMergeScan(src, layer, cols, 16)
	}
	rows, err := pdt.Materialize(src, schema)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// committed materializes table t's current committed state.
func committed(t *testing.T, m *Manager) []vtypes.Row {
	t.Helper()
	return scan(t, pin(t, m))
}

func TestReadYourOwnWrites(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 5))
	tx := begin(t, m, "t")
	if err := tx.Insert(vtypes.Row{vtypes.I64Value(100), vtypes.StrValue("new")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(0, 1, vtypes.StrValue("patched")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(2); err != nil {
		t.Fatal(err)
	}
	rows := scan(t, pin(t, m), tx.writes)
	if len(rows) != 5 { // 5 - 1 deleted + 1 inserted
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][1].Str != "patched" {
		t.Fatal("own update not visible")
	}
	if rows[4][0].I64 != 100 {
		t.Fatal("own insert not visible")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 5))
	reader := pin(t, m)

	writer := begin(t, m, "t")
	if err := writer.Update(0, 1, vtypes.StrValue("committed")); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// The earlier pin still sees the old image.
	if rows := scan(t, reader); rows[0][1].Str != "v0" {
		t.Fatal("snapshot isolation violated")
	}
	// A fresh pin sees the commit.
	if rows := committed(t, m); rows[0][1].Str != "committed" {
		t.Fatal("committed write not visible to a new pin")
	}
}

// TestCommitRefusesInterleavedWriter pins the one-writer rule: a
// transaction that began before another commit to its table is refused
// at Commit, and neither the layer stack nor the WAL sees it.
func TestCommitRefusesInterleavedWriter(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "vw.wal")
	log, _, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(log)
	m.Register(buildTable(t, "t", 10))

	a := begin(t, m, "t")
	b := begin(t, m, "t")
	if err := a.Update(1, 1, vtypes.StrValue("a")); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	before := pin(t, m)
	if err := b.Update(8, 1, vtypes.StrValue("b")); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("interleaved commit: got %v, want ErrStaleSnapshot", err)
	}
	if err := b.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("a refused transaction must be finished, got %v", err)
	}
	after := pin(t, m)
	if after.Version != before.Version || len(after.Tail) != len(before.Tail) {
		t.Fatalf("refused commit published: version %d -> %d, tails %d -> %d",
			before.Version, after.Version, len(before.Tail), len(after.Tail))
	}
	if rows := committed(t, m); rows[1][1].Str != "a" || rows[8][1].Str != "v8" {
		t.Fatalf("committed state wrong: %v", rows)
	}

	log.Close()
	reopened, recs, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if len(recs) != 2 {
		t.Fatalf("WAL holds %d records, want a's data record and commit marker", len(recs))
	}
	for _, r := range recs {
		if r.Txn == b.id {
			t.Fatalf("WAL record LSN %d carries the refused transaction's id", r.LSN)
		}
	}
}

func TestAbortDiscards(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 3))
	tx := begin(t, m, "t")
	if err := tx.Update(0, 1, vtypes.StrValue("x")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if err := tx.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatal("commit after abort must fail")
	}
	if rows := committed(t, m); rows[0][1].Str != "v0" {
		t.Fatal("aborted write leaked")
	}
}

func TestClosedTxnRejectsOps(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 3))
	tx := begin(t, m, "t")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(vtypes.Row{vtypes.I64Value(0), vtypes.StrValue("")}); !errors.Is(err, ErrClosed) {
		t.Fatal("insert on closed txn must fail")
	}
	if err := tx.Delete(0); !errors.Is(err, ErrClosed) {
		t.Fatal("delete on closed txn must fail")
	}
	if err := tx.Update(0, 0, vtypes.I64Value(1)); !errors.Is(err, ErrClosed) {
		t.Fatal("update on closed txn must fail")
	}
}

func TestUnknownTable(t *testing.T) {
	m := NewManager(nil)
	if _, err := m.Begin("nope"); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := m.Pin("nope"); err == nil {
		t.Fatal("unknown table must error")
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "vw.wal")

	// Session 1: commit two transactions, leave one aborted.
	log1, recs, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatal("fresh WAL must be empty")
	}
	tbl := buildTable(t, "t", 10)
	m1 := NewManager(log1)
	m1.Register(tbl)
	tx := begin(t, m1, "t")
	_ = tx.Update(0, 1, vtypes.StrValue("first"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := begin(t, m1, "t")
	_ = tx2.Insert(vtypes.Row{vtypes.I64Value(777), vtypes.StrValue("ins")})
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3 := begin(t, m1, "t")
	_ = tx3.Update(5, 1, vtypes.StrValue("never"))
	tx3.Abort()
	log1.Close()

	// Session 2: recover from the WAL over the original stable table.
	log2, recs2, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	m2 := NewManager(log2)
	m2.Register(tbl)
	if err := m2.Recover(recs2); err != nil {
		t.Fatal(err)
	}
	rows := committed(t, m2)
	if len(rows) != 11 {
		t.Fatalf("recovered %d rows, want 11", len(rows))
	}
	if rows[0][1].Str != "first" {
		t.Fatal("recovered update lost")
	}
	if rows[10][0].I64 != 777 {
		t.Fatal("recovered insert lost")
	}
	for _, r := range rows {
		if r[1].Str == "never" {
			t.Fatal("aborted txn leaked through recovery")
		}
	}
}

// TestRecoverAllocationBudget replays 2 000 one-row commits over a
// 10 000-entry big PDT. Recover folds each table's records with one
// Propagate — one copy of the big PDT, not one per record — so the
// replay allocates a few megabytes; a copy per record would allocate
// gigabytes.
func TestRecoverAllocationBudget(t *testing.T) {
	const stableRows, bigEntries, commits = 20_000, 10_000, 2_000
	tbl := buildTable(t, "t", stableRows)
	schema := tbl.Schema()
	var recs []wal.Record
	commit := func(p *pdt.PDT) {
		id := uint64(len(recs)/2 + 1)
		recs = append(recs,
			wal.Record{LSN: uint64(len(recs) + 1), Txn: id, Kind: wal.KindData, Table: "t", Data: pdt.Encode(p)},
			wal.Record{LSN: uint64(len(recs) + 2), Txn: id, Kind: wal.KindCommit})
	}
	big := pdt.New(schema, stableRows)
	for i := 0; i < bigEntries; i++ {
		if err := big.Modify(int64(2*i), 1, vtypes.StrValue("big")); err != nil {
			t.Fatal(err)
		}
	}
	commit(big)
	rows := int64(stableRows)
	for i := 0; i < commits; i++ {
		small := pdt.New(schema, rows)
		var err error
		if i%2 == 0 {
			err = small.Append(vtypes.Row{vtypes.I64Value(int64(stableRows + i)), vtypes.StrValue("ins")})
			rows++
		} else {
			err = small.Modify(int64(7*i)%rows, 1, vtypes.StrValue("upd"))
		}
		if err != nil {
			t.Fatal(err)
		}
		commit(small)
	}

	m := NewManager(nil)
	m.Register(tbl)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := m.Recover(recs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	const budgetMB = 16
	mb := (m1.TotalAlloc - m0.TotalAlloc) >> 20
	t.Logf("Recover allocated %d MB", mb)
	if mb > budgetMB {
		t.Errorf("Recover allocated %d MB, budget %d MB", mb, budgetMB)
	}
	p := pin(t, m)
	if p.Big.VisibleRows() != rows || p.Version != 1+commits || p.Watermark() != uint64(len(recs)-1) {
		t.Fatalf("recovered %d rows at version %d, watermark %d; want %d rows, version %d, watermark %d",
			p.Big.VisibleRows(), p.Version, p.Watermark(), rows, 1+commits, len(recs)-1)
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "vw.wal")
	log1, _, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log1.Append(1, wal.KindData, "t", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := log1.Append(1, wal.KindCommit, "", nil); err != nil {
		t.Fatal(err)
	}
	log1.Close()

	// Corrupt the tail by appending garbage.
	f, err := osOpenAppend(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, recs, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn tail must be dropped, got %d records", len(recs))
	}
	data := wal.CommittedTxns(recs)
	if len(data) != 1 || string(data[0].Data) != "payload" {
		t.Fatal("committed record lost")
	}
}

// TestRebuildFlattens walks the reorganization path the way its one
// caller (vectorwise.DB's moveTable) does: pin, fold the stack, merge it
// into a fresh image, install. The deltas must end up in the image and
// nowhere else, and a tail committed after the pin must stay on top.
func TestRebuildFlattens(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 10))
	tx := begin(t, m, "t")
	_ = tx.Delete(0)
	_ = tx.Insert(vtypes.Row{vtypes.I64Value(42), vtypes.StrValue("new")})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	pin, err := m.Pin("t")
	if err != nil {
		t.Fatal(err)
	}
	combined, err := pin.Combined()
	if err != nil {
		t.Fatal(err)
	}
	nb := storage.NewBuilder("t", pin.Stable.Schema(), 64)
	if err := MergeIntoBuilder(nb, pin.Stable, combined); err != nil {
		t.Fatal(err)
	}
	newStable, err := nb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// A commit between the pin and the install.
	late := begin(t, m, "t")
	_ = late.Update(0, 1, vtypes.StrValue("late"))
	if err := late.Commit(); err != nil {
		t.Fatal(err)
	}
	if !m.InstallStable("t", pin, newStable) {
		t.Fatal("install over an unreorganized table must succeed")
	}
	after, err := m.Pin("t")
	if err != nil {
		t.Fatal(err)
	}
	if !after.Big.Empty() || len(after.Tail) != 1 {
		t.Fatalf("install must absorb the pinned layers and keep the later tail: big=%d tails=%d", after.Big.Len(), len(after.Tail))
	}
	if after.Stable.Rows() != 10 {
		t.Fatalf("rebuilt stable has %d rows", after.Stable.Rows())
	}
	rows := committed(t, m)
	if rows[0][0].I64 != 1 || rows[0][1].Str != "late" || rows[9][0].I64 != 42 {
		t.Fatalf("rebuilt image wrong: %v", rows)
	}
	// The pin is stale now: a second install from it must be refused.
	if m.InstallStable("t", pin, newStable) || m.InstallFold("t", pin, combined) {
		t.Fatal("install from a pin that predates a reorganization must fail")
	}
}

func TestManyTransactionsSequential(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 100))
	for i := 0; i < 60; i++ {
		tx := begin(t, m, "t")
		switch i % 3 {
		case 0:
			if err := tx.Insert(vtypes.Row{vtypes.I64Value(int64(1000 + i)), vtypes.StrValue("x")}); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := tx.Update(int64(i), 1, vtypes.StrValue("upd")); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := tx.Delete(int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	// 60 commits overflow the tail stack several times: the inline fold
	// keeps it bounded without a mover.
	if p := pin(t, m); len(p.Tail) > maxTailLayers {
		t.Fatalf("%d tail layers, want at most %d", len(p.Tail), maxTailLayers)
	}
	rows := committed(t, m)
	want := 100 + 20 - 20
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
}

// TestNotNullRefusedButReplayed: Insert and Update refuse a NULL in a
// column not declared NULL with a *vtypes.NotNullError naming the table
// and column. Recovery replays what the log holds: a logged layer with
// such a row, as an older build could write, replays as it is.
func TestNotNullRefusedButReplayed(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "vw.wal")
	log1, _, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	tbl := buildTable(t, "t", 4)
	m1 := NewManager(log1)
	m1.Register(tbl)
	null := vtypes.Value{Kind: vtypes.KindStr, Null: true}
	tx := begin(t, m1, "t")
	for what, err := range map[string]error{
		"Insert": tx.Insert(vtypes.Row{vtypes.I64Value(9), null}),
		"Update": tx.Update(1, 1, null),
	} {
		var nn *vtypes.NotNullError
		if !errors.As(err, &nn) || nn.Table != "t" || nn.Column != "val" {
			t.Errorf("%s: got %v, want a NOT NULL error on t.val", what, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	old := pdt.New(tbl.Schema(), tbl.Rows())
	if err := old.Append(vtypes.Row{vtypes.I64Value(9), null}); err != nil {
		t.Fatal(err)
	}
	if _, err := log1.Append(99, wal.KindData, "t", pdt.Encode(old)); err != nil {
		t.Fatal(err)
	}
	if _, err := log1.Append(99, wal.KindCommit, "", nil); err != nil {
		t.Fatal(err)
	}
	log1.Close()

	log2, recs, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	m2 := NewManager(log2)
	m2.Register(tbl)
	if err := m2.Recover(recs); err != nil {
		t.Fatalf("recovery of a logged NULL: %v", err)
	}
	if rows := committed(t, m2); len(rows) != 5 || !rows[4][1].Null {
		t.Fatalf("recovered %v", rows)
	}
}

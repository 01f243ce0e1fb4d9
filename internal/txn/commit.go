package txn

import (
	"fmt"
	"sync"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/wal"
)

// Commit logs the transaction's writes and publishes them as the
// table's new top tail layer. It returns ErrStaleSnapshot, logging and
// publishing nothing, if the table's version moved since Begin. Either
// way the transaction is finished.
func (t *Txn) Commit() error {
	if t.done {
		return ErrClosed
	}
	t.done = true
	if t.writes.Empty() {
		return nil
	}
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tables[t.table]
	if ts.version != t.version {
		return ErrStaleSnapshot
	}
	var lsn uint64
	if m.log != nil {
		var err error
		if lsn, err = m.log.Append(t.id, wal.KindData, t.table, pdt.Encode(t.writes)); err != nil {
			return fmt.Errorf("txn: wal append: %w", err)
		}
		if _, err := m.log.Append(t.id, wal.KindCommit, "", nil); err != nil {
			return fmt.Errorf("txn: wal commit marker: %w", err)
		}
		if err := m.log.Sync(); err != nil {
			return fmt.Errorf("txn: wal sync: %w", err)
		}
	}
	// The slices are copied so pins held by readers keep their exact stack.
	ts.tail = append(append([]*pdt.PDT(nil), ts.tail...), t.writes)
	ts.tailLSN = append(append([]uint64(nil), ts.tailLSN...), lsn)
	ts.version++
	if len(ts.tail) > maxTailLayers {
		if err := foldTailsLocked(ts); err != nil {
			return fmt.Errorf("txn: inline fold: %w", err)
		}
	}
	return nil
}

// Abort discards the transaction's writes.
func (t *Txn) Abort() {
	t.done = true
	t.writes = nil
}

// foldTailsLocked folds every tail layer into the big PDT in place (the
// inline backstop when the stack outgrows maxTailLayers). Callers hold
// Manager.mu. Published layers are not mutated: Combined builds a new
// PDT, and the stack is replaced wholesale.
func foldTailsLocked(ts *tableState) error {
	pin := pinLocked(ts)
	folded, err := pin.Combined()
	if err != nil {
		return err
	}
	install(ts, pin, ts.stable, folded)
	return nil
}

// MergeIntoBuilder streams a table's visible rows — stable image merged
// with the given PDT — into b: the one definition of the rebuild merge.
// The stable image is read with its dictionaries decoded (storage.DecodedFetcher),
// since the builder takes values.
func MergeIntoBuilder(b *storage.Builder, stable *storage.Table, master *pdt.PDT) error {
	schema := stable.Schema()
	cols := make([]int, schema.Len())
	for i := range cols {
		cols[i] = i
	}
	merged := pdt.NewMergeScan(&scanSource{sc: storage.NewScanner(stable, cols, storage.DecodedFetcher{}, nil, 0)}, master, cols, 0)
	raw := make([]any, len(cols))
	nulls := make([][]bool, len(cols))
	for {
		vecs, n, err := merged.Next()
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		for c, v := range vecs {
			switch v.Kind.StorageClass() {
			case vtypes.ClassI64:
				raw[c] = v.I64[:n]
			case vtypes.ClassF64:
				raw[c] = v.F64[:n]
			case vtypes.ClassStr:
				raw[c] = v.Str[:n]
			case vtypes.ClassBool:
				raw[c] = v.B[:n]
			}
			nulls[c] = nil
			if v.Nulls != nil {
				nulls[c] = v.Nulls[:n]
			}
		}
		if _, err := b.AppendColumns(raw, nulls); err != nil {
			return err
		}
	}
}

// Pinned is an immutable pin of one table's committed state: the stable
// image plus the PDT layer stack over it (big below, tails above,
// bottom first). Epoch-snapshot cursors and the tuple mover both work
// from pins — the pinned objects are never mutated by later commits, so
// no lock is needed while reading or folding them off-line.
type Pinned struct {
	Stable  *storage.Table
	Big     *pdt.PDT
	Tail    []*pdt.PDT
	Version uint64

	base    uint64
	bigLSN  uint64
	tailLSN []uint64

	// combined is the memoized fold of the stack (see Combined).
	fold     sync.Once
	combined *pdt.PDT
	foldErr  error
}

// Layers returns the pin's non-empty PDT layers bottom-first — the
// stack a merge scan applies over the stable image.
func (p *Pinned) Layers() []*pdt.PDT {
	out := make([]*pdt.PDT, 0, 1+len(p.Tail))
	if !p.Big.Empty() {
		out = append(out, p.Big)
	}
	out = append(out, p.Tail...)
	return out
}

// Combined folds the pin's whole layer stack into one PDT over the
// stable image: Big itself when there are no tails, else one Propagate
// of the tails onto a copy of Big. It is computed at most once per pin,
// by the first caller, and is immutable like the layers it folds; safe
// for concurrent use. It is the mover's off-line propagate step and the
// read layer of an epoch snapshot, shared by every cursor and exchange
// partition of the epoch, so a scan merges one layer however many tails
// the pin holds. It dies with the pin.
func (p *Pinned) Combined() (*pdt.PDT, error) {
	p.fold.Do(func() { p.combined, p.foldErr = pdt.Propagate(p.Big, p.Tail...) })
	return p.combined, p.foldErr
}

// Watermark returns the highest WAL LSN whose effects are contained in
// the pin (stable image, big, and tails). A stable image rebuilt from
// the full pin records this as its applied LSN.
func (p *Pinned) Watermark() uint64 {
	w := p.bigLSN
	for _, lsn := range p.tailLSN {
		if lsn > w {
			w = lsn
		}
	}
	return w
}

func pinLocked(ts *tableState) *Pinned {
	return &Pinned{
		Stable:  ts.stable,
		Big:     ts.big,
		Tail:    ts.tail,
		Version: ts.version,
		base:    ts.base,
		bigLSN:  ts.bigLSN,
		tailLSN: ts.tailLSN,
	}
}

// Pin captures the table's current committed state.
func (m *Manager) Pin(table string) (*Pinned, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tables[table]
	if ts == nil {
		return nil, fmt.Errorf("txn: unknown table %q", table)
	}
	return pinLocked(ts), nil
}

// PinAll captures every table's committed state at one instant — the
// cross-table consistency point an epoch snapshot is built from.
func (m *Manager) PinAll() map[string]*Pinned {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*Pinned, len(m.tables))
	for name, ts := range m.tables {
		out[name] = pinLocked(ts)
	}
	return out
}

// install replaces a table's reorganized layers in place: stable and
// big now hold everything pin held, and only tail layers committed after
// the pin stay on top (their coordinates are over the pin's top image,
// which stable+big reproduce exactly). Callers hold Manager.mu and have
// checked ts.base == pin.base.
func install(ts *tableState, pin *Pinned, stable *storage.Table, big *pdt.PDT) {
	ts.stable, ts.big, ts.bigLSN = stable, big, pin.Watermark()
	ts.tail = append([]*pdt.PDT(nil), ts.tail[len(pin.Tail):]...)
	ts.tailLSN = append([]uint64(nil), ts.tailLSN[len(pin.Tail):]...)
	ts.base++
	ts.version++
}

// InstallFold publishes folded — the off-line Propagate of pin's big
// and tail layers (pin.Combined()) — as the table's new big PDT,
// keeping any tail layers committed after the pin. It fails (returns
// false, no change) when the table was reorganized since the pin; the
// mover just retries on its next tick. Bumps the base generation.
func (m *Manager) InstallFold(table string, pin *Pinned, folded *pdt.PDT) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tables[table]
	if ts == nil || ts.base != pin.base {
		return false
	}
	install(ts, pin, ts.stable, folded)
	return true
}

// InstallStable swaps in a stable image rebuilt off-line from the whole
// pin — pin.Stable merged with pin.Combined() — and resets the big PDT
// to empty, keeping any tail layers committed after the pin. The caller
// has stamped the image's applied-LSN watermark with pin.Watermark()
// and persisted it: from here on the image is the only durable copy of
// what it absorbed. Fails (returns false, no change) when the table was
// reorganized since the pin.
func (m *Manager) InstallStable(table string, pin *Pinned, newStable *storage.Table) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tables[table]
	if ts == nil || ts.base != pin.base {
		return false
	}
	install(ts, pin, newStable, pdt.New(newStable.Schema(), newStable.Rows()))
	return true
}

// TruncateWALIfClean resets the WAL when every table's deltas are empty
// — i.e. all committed state is materialized in stable images, which
// were persisted before they were installed. It is the only caller of
// wal.Log.Reset: nothing else makes a logged record disappear, and
// until it runs, records an image absorbed stay in the log, inert under
// that image's applied-LSN watermark. LSNs stay monotonic across the
// reset (see wal.Log.Reset), so watermarks remain comparable. No-op
// when any table still carries deltas or there is no WAL.
func (m *Manager) TruncateWALIfClean() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil
	}
	for _, ts := range m.tables {
		if !ts.big.Empty() || len(ts.tail) > 0 {
			return nil
		}
	}
	return m.log.Reset()
}

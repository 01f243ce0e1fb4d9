// Package pdt implements Positional Delta Trees (paper ref [5]), the
// differential update structure behind Vectorwise transactions. Updates
// are not applied in place — which would cost one I/O per column per
// modified record plus recompression — but gathered in a PDT that
// annotates changes by *tuple position* rather than by key. Scans merge
// the deltas in positionally, without reading key columns.
//
// Terminology (from the paper):
//
//   - SID: stable ID — position of a tuple in the immutable stable table
//     image underneath this PDT.
//   - RID: row ID — position of a tuple in the image that results from
//     applying this PDT to its stable input.
//
// PDTs layer: a transaction's private ("small") PDT sits on top of the
// shared ("big") PDT, whose output image defines the small PDT's SIDs.
// Committing propagates the small PDT's changes down onto a copy of the
// big one (see Propagate).
//
// The structure is a two-level counted tree: an ordered sequence of
// bounded chunks, each carrying insert/delete counts, giving O(√n)-ish
// updates and O(log n) position lookups at in-memory scale — the role
// the counted B-tree plays in the paper. Chunks are shared between a PDT
// and its clones and copied on first write (see Clone), so the copy a
// commit or a snapshot's read layer folds onto costs the chunks its own
// entries touch, not the whole big PDT.
package pdt

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"vectorwise/internal/vtypes"
)

// EntryType discriminates delta entries.
type EntryType uint8

// Delta entry types.
const (
	// Ins inserts a new tuple immediately before stable position SID.
	Ins EntryType = iota + 1
	// Del deletes the stable tuple at SID.
	Del
	// Mod overwrites columns of the stable tuple at SID.
	Mod
)

// ColChange is one modified column of a Mod entry.
type ColChange struct {
	// Col is the column index in the table schema.
	Col int
	// Val is the new value.
	Val vtypes.Value
}

// Entry is one delta. Entries at equal SID are ordered: all Ins entries
// (in insertion order, they appear in the image in sequence order),
// then at most one Del or one Mod for the stable tuple itself.
type Entry struct {
	SID  int64
	Type EntryType
	// Row is the full new tuple for Ins entries.
	Row vtypes.Row
	// Mods lists changed columns for Mod entries.
	Mods []ColChange
}

// maxChunk bounds chunk size; inserts within a chunk are memmoves of at
// most this many entries.
const maxChunk = 256

type chunk struct {
	entries []Entry
	ins     int
	del     int
	// owner is the token of the one PDT that may write the chunk in
	// place; any other PDT holding the chunk copies it first (see mut).
	owner *owner
}

// owner is a PDT's chunk-ownership token. It is a token rather than the
// *PDT itself so that a cloned PDT can give up every chunk it shares in
// one step: it takes a new token.
type owner struct{ _ byte }

// PDT is a positional delta tree over a stable image of StableRows rows.
type PDT struct {
	schema     *vtypes.Schema
	stableRows int64
	chunks     []*chunk
	// before[i] is the net ins-del count of chunks[:i], so a position
	// lookup does not sum the chunks it passes.
	before []int64
	ins    int
	del    int
	// own is the token of the chunks p writes in place; nil owns none.
	own *owner
	// shared is set by Clone: the clone holds every chunk p holds, so p
	// takes a new token before its next write. Atomic because readers
	// clone a published PDT concurrently.
	shared atomic.Bool
}

// New creates an empty PDT over a stable image with the given row count.
func New(schema *vtypes.Schema, stableRows int64) *PDT {
	return &PDT{schema: schema, stableRows: stableRows}
}

// Schema returns the table schema the PDT applies to.
func (p *PDT) Schema() *vtypes.Schema { return p.schema }

// StableRows returns the stable input row count.
func (p *PDT) StableRows() int64 { return p.stableRows }

// VisibleRows returns the row count of the output image.
func (p *PDT) VisibleRows() int64 { return p.stableRows + int64(p.ins) - int64(p.del) }

// Len returns the number of delta entries.
func (p *PDT) Len() int {
	n := 0
	for _, c := range p.chunks {
		n += len(c.entries)
	}
	return n
}

// Empty reports whether the PDT carries no deltas.
func (p *PDT) Empty() bool { return len(p.chunks) == 0 }

// KeepsOrder reports whether merging p into an image keeps the order of
// column col: p inserts no row and modifies no value of col. A delete
// leaves a subsequence, which is in order still.
func (p *PDT) KeepsOrder(col int) bool {
	if p.ins > 0 {
		return false
	}
	for _, c := range p.chunks {
		for _, e := range c.entries {
			if e.Type == Mod && slices.ContainsFunc(e.Mods, func(m ColChange) bool { return m.Col == col }) {
				return false
			}
		}
	}
	return true
}

// Clone returns a PDT with p's entry sequence in O(chunks): the two share
// every chunk, and whichever writes a shared chunk first writes its own
// copy of it (copy-on-write at chunk granularity; neither owns a chunk
// the other holds). An entry's Ins row and Mods list are shared too and
// never written through: Modify replaces them with modified copies. So
// either PDT can change without the other seeing it, and cloning a
// published PDT, which is never written, is safe from any goroutine.
func (p *PDT) Clone() *PDT {
	if !p.shared.Load() {
		p.shared.Store(true)
	}
	return &PDT{schema: p.schema, stableRows: p.stableRows, ins: p.ins, del: p.del,
		chunks: slices.Clone(p.chunks), before: slices.Clone(p.before)}
}

// token returns p's ownership token, first giving up the chunks a Clone
// shares with it.
func (p *PDT) token() *owner {
	if p.shared.Load() {
		p.shared.Store(false)
		p.own = nil
	}
	if p.own == nil {
		p.own = new(owner)
	}
	return p.own
}

// mut returns chunk ci ready to be written in place: p's own chunk, or a
// private copy of a shared one, which replaces it in p.
func (p *PDT) mut(ci int) *chunk {
	own := p.token()
	c := p.chunks[ci]
	if c.owner != own {
		c = ownCopy(c.entries, own)
		p.chunks[ci] = c
	}
	return c
}

// ownCopy returns a chunk owned by own holding a copy of ents, with room
// for one more entry.
func ownCopy(ents []Entry, own *owner) *chunk {
	c := &chunk{entries: append(make([]Entry, 0, len(ents)+1), ents...), owner: own}
	for i := range c.entries {
		switch c.entries[i].Type {
		case Ins:
			c.ins++
		case Del:
			c.del++
		}
	}
	return c
}

// Entries returns all deltas in order (for serialization and tests).
func (p *PDT) Entries() []Entry {
	out := make([]Entry, 0, p.Len())
	for _, c := range p.chunks {
		out = append(out, c.entries...)
	}
	return out
}

// seek returns the net ins-del count of the entries at SID < s and the
// position (ci, ei) of the first entry at SID >= s.
func (p *PDT) seek(s int64) (delta int64, ci, ei int) {
	// Find first chunk that may contain SID >= s.
	ci = sort.Search(len(p.chunks), func(i int) bool {
		c := p.chunks[i].entries
		return c[len(c)-1].SID >= s
	})
	if ci == len(p.chunks) {
		return int64(p.ins - p.del), ci, 0
	}
	delta = p.before[ci]
	ents := p.chunks[ci].entries
	ei = sort.Search(len(ents), func(i int) bool { return ents[i].SID >= s })
	for i := 0; i < ei; i++ {
		switch ents[i].Type {
		case Ins:
			delta++
		case Del:
			delta--
		}
	}
	return delta, ci, ei
}

// deltaBefore returns seek's answer for s and insAtS, the number of Ins
// entries at SID s. They may span chunks (appends at stableRows fill
// many), which are counted whole where they hold nothing else.
func (p *PDT) deltaBefore(s int64) (delta int64, insAtS int, ci, ei int) {
	delta, ci, ei = p.seek(s)
	for cj, ej := ci, ei; cj < len(p.chunks); cj, ej = cj+1, 0 {
		es := p.chunks[cj].entries
		if ej == 0 && p.chunks[cj].ins == len(es) && es[len(es)-1].SID == s {
			insAtS += len(es)
			continue
		}
		for ; ej < len(es) && es[ej].SID == s && es[ej].Type == Ins; ej++ {
			insAtS++
		}
		if ej < len(es) {
			break
		}
	}
	return delta, insAtS, ci, ei
}

// startRID returns the RID of the first image row belonging to stable
// position s: the first Ins at s if any, else stable s itself.
func (p *PDT) startRID(s int64) int64 {
	delta, _, _ := p.seek(s)
	return s + delta
}

// target describes what a RID resolves to.
type target struct {
	sid   int64 // stable position
	insK  int   // if insEntry: index among Ins entries at sid
	isIns bool  // RID addresses the insK-th Ins entry at sid
	// When !isIns the RID addresses the stable tuple at sid (which is
	// guaranteed visible: deleted stables have no RID).
}

// resolve maps a visible RID to its target. rid must be in
// [0, VisibleRows()).
func (p *PDT) resolve(rid int64) (target, error) {
	if rid < 0 || rid >= p.VisibleRows() {
		return target{}, fmt.Errorf("pdt: RID %d out of range [0,%d)", rid, p.VisibleRows())
	}
	// Binary search the largest stable s in [0, stableRows] with
	// startRID(s) <= rid; startRID is non-decreasing.
	lo, hi := int64(0), p.stableRows // inclusive bounds on s
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.startRID(mid) <= rid {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	s := lo
	delta, insAtS, _, _ := p.deltaBefore(s)
	k := rid - (s + delta)
	if k < int64(insAtS) {
		return target{sid: s, insK: int(k), isIns: true}, nil
	}
	// Must be the stable tuple at s; verify it is not deleted and the
	// offset is exactly insAtS (anything else is an internal error).
	if k != int64(insAtS) || s >= p.stableRows || p.isDeleted(s) {
		return target{}, fmt.Errorf("pdt: internal resolve failure for RID %d (s=%d k=%d ins=%d)", rid, s, k, insAtS)
	}
	return target{sid: s, insK: insAtS}, nil
}

// isDeleted reports whether stable tuple s has a Del entry.
func (p *PDT) isDeleted(s int64) bool {
	e := p.findStableEntry(s)
	return e != nil && e.Type == Del
}

// findStableEntry returns the Del or Mod entry for stable s, if any.
func (p *PDT) findStableEntry(s int64) *Entry {
	_, ci, ei := p.seek(s)
	for ci < len(p.chunks) {
		ents := p.chunks[ci].entries
		for ei < len(ents) {
			e := &ents[ei]
			if e.SID != s {
				return nil
			}
			if e.Type != Ins {
				return e
			}
			ei++
		}
		ci++
		ei = 0
	}
	return nil
}

// insertEntryAt places a new entry at logical position (ci, ei).
func (p *PDT) insertEntryAt(ci, ei int, e Entry) {
	if len(p.chunks) == 0 {
		p.chunks, p.before = []*chunk{{owner: p.token()}}, []int64{0}
		ci, ei = 0, 0
	}
	if ci == len(p.chunks) {
		ci--
		ei = len(p.chunks[ci].entries)
	}
	if len(p.chunks[ci].entries) == maxChunk {
		// A full chunk splits before it grows.
		p.splitChunk(ci)
		if half := maxChunk / 2; ei > half {
			ci, ei = ci+1, ei-half
		}
	}
	c := p.mut(ci)
	c.entries = slices.Insert(c.entries, ei, e)
	switch e.Type {
	case Ins:
		c.ins++
		p.ins++
		p.shift(ci, 1)
	case Del:
		c.del++
		p.del++
		p.shift(ci, -1)
	}
}

// shift adds d to the net count of every chunk after chunk ci.
func (p *PDT) shift(ci int, d int64) {
	for j := ci + 1; j < len(p.before); j++ {
		p.before[j] += d
	}
}

// splitChunk replaces a full chunk with two new ones holding its
// halves, each with room for the insert that splits it. The old chunk,
// which a clone may share, is left as it was.
func (p *PDT) splitChunk(ci int) {
	c, own := p.chunks[ci], p.token()
	half := len(c.entries) / 2
	left, right := ownCopy(c.entries[:half], own), ownCopy(c.entries[half:], own)
	p.chunks[ci] = left
	p.chunks = slices.Insert(p.chunks, ci+1, right)
	p.before = slices.Insert(p.before, ci+1, p.before[ci]+int64(left.ins-left.del))
}

// removeEntryAt deletes the entry at (ci, ei).
func (p *PDT) removeEntryAt(ci, ei int) {
	c := p.mut(ci)
	switch c.entries[ei].Type {
	case Ins:
		c.ins--
		p.ins--
		p.shift(ci, -1)
	case Del:
		c.del--
		p.del--
		p.shift(ci, 1)
	}
	c.entries = slices.Delete(c.entries, ei, ei+1)
	if len(c.entries) == 0 {
		p.chunks = slices.Delete(p.chunks, ci, ci+1)
		p.before = slices.Delete(p.before, ci, ci+1)
	}
}

// locate finds the logical position (ci, ei) of the k-th entry at SID s;
// the k entries before it are Ins entries at s. Pass k == insAtS to land
// after the Ins run (where Del/Mod for s lives).
func (p *PDT) locate(s int64, k int) (ci, ei int) {
	_, ci, ei = p.seek(s)
	for ci < len(p.chunks) && ei+k >= len(p.chunks[ci].entries) {
		k -= len(p.chunks[ci].entries) - ei
		ci, ei = ci+1, 0
	}
	return ci, ei + k
}

// Insert makes row visible at position rid (0 <= rid <= VisibleRows()),
// shifting subsequent rows down.
func (p *PDT) Insert(rid int64, row vtypes.Row) error {
	if len(row) != p.schema.Len() {
		return fmt.Errorf("pdt: insert arity %d != schema %d", len(row), p.schema.Len())
	}
	if rid < 0 || rid > p.VisibleRows() {
		return fmt.Errorf("pdt: insert RID %d out of range [0,%d]", rid, p.VisibleRows())
	}
	// Find the stable position s whose region contains rid.
	lo, hi := int64(0), p.stableRows
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.startRID(mid) <= rid {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	s := lo
	delta, insAtS, _, _ := p.deltaBefore(s)
	k := int(rid - (s + delta))
	if k > insAtS {
		// rid points past the Ins run into/behind the stable tuple; an
		// insert "at the stable tuple of the NEXT position" — normalize
		// to the next stable position's region.
		s++
		k = 0
	}
	ci, ei := p.locate(s, k)
	p.insertEntryAt(ci, ei, Entry{SID: s, Type: Ins, Row: row.Clone()})
	return nil
}

// Append makes row the new last visible row.
func (p *PDT) Append(row vtypes.Row) error {
	return p.Insert(p.VisibleRows(), row)
}

// Delete removes the visible row at rid.
func (p *PDT) Delete(rid int64) error {
	t, err := p.resolve(rid)
	if err != nil {
		return err
	}
	if t.isIns {
		ci, ei := p.locate(t.sid, t.insK)
		p.removeEntryAt(ci, ei)
		return nil
	}
	// Stable tuple: a prior Mod for s is superseded by the Del.
	if e := p.findStableEntry(t.sid); e != nil && e.Type == Mod {
		ci, ei := p.locate(t.sid, t.insK) // lands on the Mod entry
		p.removeEntryAt(ci, ei)
	}
	ci, ei := p.locate(t.sid, t.insK)
	p.insertEntryAt(ci, ei, Entry{SID: t.sid, Type: Del})
	return nil
}

// Modify overwrites column col of the visible row at rid.
func (p *PDT) Modify(rid int64, col int, val vtypes.Value) error {
	if col < 0 || col >= p.schema.Len() {
		return fmt.Errorf("pdt: column %d out of range", col)
	}
	t, err := p.resolve(rid)
	if err != nil {
		return err
	}
	// Chunks, rows and Mods lists may be shared with a Clone: write
	// copies.
	if t.isIns {
		ci, ei := p.locate(t.sid, t.insK)
		e := &p.mut(ci).entries[ei]
		row := e.Row.Clone()
		row[col] = val
		e.Row = row
		return nil
	}
	if e := p.findStableEntry(t.sid); e != nil && e.Type == Mod {
		ci, ei := p.locate(t.sid, t.insK) // lands on the Mod entry
		e = &p.mut(ci).entries[ei]
		mods := append([]ColChange(nil), e.Mods...)
		e.Mods = mods
		for i := range mods {
			if mods[i].Col == col {
				mods[i].Val = val
				return nil
			}
		}
		e.Mods = append(mods, ColChange{Col: col, Val: val})
		return nil
	}
	ci, ei := p.locate(t.sid, t.insK)
	p.insertEntryAt(ci, ei, Entry{SID: t.sid, Type: Mod, Mods: []ColChange{{Col: col, Val: val}}})
	return nil
}

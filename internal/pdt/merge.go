package pdt

import (
	"fmt"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// RowSource is a pull-based stream of row batches as aligned column
// vectors (dense, no selection vector). n == 0 signals end of stream.
// The vectors are valid until the next call to Next: a consumer copies
// what it keeps. The storage scanner and the merge scan both present
// this shape, so PDT layers chain naturally: stable → big PDT → small
// PDT.
type RowSource interface {
	Next() (cols []*vector.Vector, n int, err error)
}

// PositionedSource is a RowSource that also reports where its batches
// sit in the global position space of its consumer: BasePos is the
// position of the first row of the batch most recently returned by
// Next, and [StartPos, EndPos) is the whole stream's range (the table,
// or a GroupLo/GroupHi partition of it). Inside that range a positioned
// source may leave gaps — row groups skipped by min/max pruning, and the
// rows of a group a search of a sorted chunk leaves out — but never
// returns a batch spanning one.
//
// The skipping contract is that every stable row of a gap is refuted by
// the scan's filter, with its deltas applied (see core.ScanOpts.Skip):
// a gap's rows need no stable chunk, only its entries. MergeScan emits
// the Ins rows of a gap, which carry whole tuples for the filter to
// judge, and counts its Del and Mod entries into the running RID.
// Entries before StartPos belong to earlier partitions and entries at
// EndPos and beyond to later ones; both are stepped over unemitted,
// except appends at the table end, which the partition reaching it
// emits.
type PositionedSource interface {
	RowSource
	BasePos() int64
	StartPos() int64
	EndPos() int64
}

// MergeLayers stacks one MergeScan per non-empty layer over src, bottom
// layer first, each reading the table columns cols. With no deltas it
// returns src itself.
func MergeLayers(src PositionedSource, layers []*PDT, cols []int, vecCap int) PositionedSource {
	for _, p := range layers {
		if p != nil && !p.Empty() {
			src = NewMergeScan(src, p, cols, vecCap)
		}
	}
	return src
}

// MergeScan applies a PDT to a stable RowSource positionally: deleted
// stable rows are dropped, modified rows patched, inserted rows injected
// at their positions. The work is proportional to the deltas: a source
// batch no entry touches is handed up as is, without a copy; a touched
// batch moves its runs of untouched rows with bulk copies into one
// output batch, reused from call to call and sized by the rows the merge
// can still emit (see output). The source delivers a column projection
// of the table and the PDT stays in table columns: Ins rows and Mod
// columns are read through the projection.
type MergeScan struct {
	src PositionedSource
	p   *PDT
	// cols[i] is the table column of output column i; outOf is its
	// inverse (-1 for table columns not projected).
	cols   []int
	outOf  []int
	vecCap int
	schema *vtypes.Schema // of the output: the table's, projected on cols

	// stable input cursor
	in  []*vector.Vector
	n   int
	off int
	sid int64
	eof bool
	// gapEnd is where the source's next delivered row sits: stable
	// positions in [sid, gapEnd) form a gap the source skipped.
	gapEnd int64
	// jumped records that the cursor crossed stable rows without
	// delivering them (a gap). Rows produced before and after a jump
	// must land in different output batches so this MergeScan's own
	// BasePos stays truthful for the layer above.
	jumped bool

	// entry cursor: the next entry is p.chunks[ci].entries[ei]
	ci, ei int
	// delta is the net ins-del count of consumed entries — applied or
	// stepped over; sid+delta is the RID of the next output row, which
	// makes the merge itself a PositionedSource for the layer above.
	delta   int64
	basePos int64
	// entStop bounds entry emission after eof: entries at SID >=
	// entStop belong to the partition after this one. Full-range
	// merges keep it past stableRows so appends emit.
	entStop int64

	out []*vector.Vector // nil until a batch is not passed through
}

// noEntry is the SID reported once the entry cursor is exhausted.
const noEntry = 1<<62 - 1

// NewMergeScan wraps src, which yields the distinct table columns cols
// in that order, with the deltas of p. vecCap <= 0 selects
// vector.DefaultSize for output batches.
func NewMergeScan(src PositionedSource, p *PDT, cols []int, vecCap int) *MergeScan {
	if vecCap <= 0 {
		vecCap = vector.DefaultSize
	}
	outOf := make([]int, p.schema.Len())
	for c := range outOf {
		outOf[c] = -1
	}
	for i, c := range cols {
		outOf[c] = i
	}
	m := &MergeScan{
		src:     src,
		p:       p,
		cols:    cols,
		outOf:   outOf,
		vecCap:  vecCap,
		schema:  p.schema.Project(cols),
		sid:     src.StartPos(),
		entStop: noEntry,
	}
	// Step over the run-up to the source's start.
	m.gapEnd = m.sid
	m.skipEntriesBelow(m.sid, true)
	return m
}

// BasePos implements PositionedSource: the RID (in this merge's output
// image) of the first row of the batch most recently returned by Next.
func (m *MergeScan) BasePos() int64 { return m.basePos }

// StartPos implements PositionedSource: the RID of the first image row
// of this merge's range, the first Ins at its source's start if any.
func (m *MergeScan) StartPos() int64 { return m.p.StartRID(m.src.StartPos()) }

// EndPos implements PositionedSource: the exclusive RID bound of this
// merge's output range. A full-range merge ends at VisibleRows (its
// appends included); a partition-restricted merge ends where the next
// partition's first image row begins.
func (m *MergeScan) EndPos() int64 {
	end := m.src.EndPos()
	if end == m.p.stableRows {
		return m.p.VisibleRows()
	}
	return m.p.StartRID(end)
}

// entry returns the entry under the cursor, nil when exhausted.
func (m *MergeScan) entry() *Entry {
	if m.ci >= len(m.p.chunks) {
		return nil
	}
	return &m.p.chunks[m.ci].entries[m.ei]
}

// entrySID is the SID of the entry under the cursor, noEntry when
// exhausted.
func (m *MergeScan) entrySID() int64 {
	if e := m.entry(); e != nil {
		return e.SID
	}
	return noEntry
}

// consume advances the entry cursor past the current entry, folding its
// net insert-delete effect into delta. Chunks are never empty.
func (m *MergeScan) consume() {
	switch m.p.chunks[m.ci].entries[m.ei].Type {
	case Ins:
		m.delta++
	case Del:
		m.delta--
	}
	if m.ei++; m.ei == len(m.p.chunks[m.ci].entries) {
		m.ci, m.ei = m.ci+1, 0
	}
}

// skipEntriesBelow steps the entry cursor over entries at SID < sid
// without applying them, stopping at the first Ins entry unless ins is
// set. With ins set it steps over a partition's run-up, whose entries
// other partitions apply; without, over the Del and Mod entries of a
// gap, whose stable rows are never delivered. Their net insert-delete
// effect still lands in delta, a whole chunk at a time where the chunk
// qualifies, so sid+delta stays the true global RID.
func (m *MergeScan) skipEntriesBelow(sid int64, ins bool) {
	for m.ci < len(m.p.chunks) {
		c := m.p.chunks[m.ci]
		if m.ei == 0 && c.entries[len(c.entries)-1].SID < sid && (ins || c.ins == 0) {
			m.delta += int64(c.ins - c.del)
			m.ci++
			continue
		}
		if e := &c.entries[m.ei]; e.SID >= sid || (!ins && e.Type == Ins) {
			return
		}
		m.consume()
	}
}

// fill ensures a stable batch is available (or eof). A batch that
// starts past the cursor leaves a gap up to it, and eof one up to the
// source's end.
func (m *MergeScan) fill() error {
	for !m.eof && m.off >= m.n {
		in, n, err := m.src.Next()
		if err != nil {
			return err
		}
		if n == 0 {
			// Entries past the end — the next partition's — stop
			// emission, except appends at stableRows, which belong to
			// the partition that reaches the table end.
			m.eof = true
			m.gapEnd = m.src.EndPos()
			m.entStop = m.gapEnd
			if m.gapEnd == m.p.stableRows {
				m.entStop = m.p.stableRows + 1
			}
			return nil
		}
		m.in, m.n, m.off, m.gapEnd = in, n, 0, m.src.BasePos()
	}
	return nil
}

// Next implements RowSource, producing the merged image. The returned
// vectors are the source's own when no entry touches its batch, else
// the merge's output batch; either way they are valid until the next
// call.
func (m *MergeScan) Next() (cols []*vector.Vector, n int, err error) {
	if err := m.fill(); err != nil {
		return nil, 0, err
	}
	// A jump before the first row of a batch is not a cut — the batch
	// simply starts after the gap.
	m.jumped = false
	m.basePos = m.sid + m.delta
	// out is made at the first row this call writes, limit cut to it.
	var out []*vector.Vector
	produced, limit := 0, m.vecCap
	for produced < limit {
		if m.jumped {
			// A gap opened mid-batch: rows after it have discontiguous
			// RIDs, so they start the next batch.
			if produced > 0 {
				break
			}
			m.jumped = false
			m.basePos = m.sid + m.delta
		}
		if m.sid < m.gapEnd {
			// Inside a gap: emit an Ins at the cursor, else step over
			// Del and Mod entries to the gap's next Ins or its end.
			m.skipEntriesBelow(m.gapEnd, false)
			if m.entrySID() == m.sid {
				if out == nil {
					out, limit = m.output()
				}
				produced += m.emitIns(out, produced, limit)
				continue
			}
			m.sid = min(m.entrySID(), m.gapEnd)
			m.jumped = true
			continue
		}
		e, entSID := m.entry(), m.entrySID()
		if entSID < m.sid {
			// Nothing consumes an entry the cursor has passed: looping
			// on it would spin forever.
			return nil, 0, fmt.Errorf("pdt: merge cursor at stable position %d is past an unapplied entry at %d", m.sid, entSID)
		}
		if m.eof && (entSID >= m.entStop || entSID > m.sid) {
			break
		}
		if !m.eof && m.sid < entSID {
			if produced == 0 && m.off == 0 && m.n <= m.vecCap && entSID >= m.sid+int64(m.n) {
				// Entry-free batch (an Ins at sid+n lands after it):
				// pass it through.
				m.off = m.n
				m.sid += int64(m.n)
				return m.in, m.n, nil
			}
			// Bulk-copy the run of untouched stable rows.
			if out == nil {
				out, limit = m.output()
			}
			run := min(entSID-m.sid, int64(m.n-m.off), int64(limit-produced))
			for c, v := range out {
				v.CopyFrom(m.in[c], m.off, produced, int(run))
			}
			m.off += int(run)
			m.sid += run
			produced += int(run)
			if err := m.fill(); err != nil {
				return nil, 0, err
			}
			continue
		}
		if out == nil && e.Type != Del {
			out, limit = m.output()
		}
		switch e.Type {
		case Ins:
			produced += m.emitIns(out, produced, limit)
		case Del:
			// Consume the entry, then skip its stable row: the step may
			// load the batch after a gap.
			m.consume()
			if err := m.skipStable(); err != nil {
				return nil, 0, err
			}
		case Mod:
			for c, v := range out {
				v.CopyFrom(m.in[c], m.off, produced, 1)
			}
			for _, mc := range e.Mods {
				if c := m.outOf[mc.Col]; c >= 0 {
					out[c].Set(produced, mc.Val)
				}
			}
			produced++
			m.consume()
			if err := m.skipStable(); err != nil {
				return nil, 0, err
			}
		}
	}
	if produced == 0 {
		return nil, 0, nil
	}
	return out, produced, nil
}

// output returns the vectors a Next call writes its rows to and how many
// it may write: the rows the merge can still emit, EndPos − basePos, at
// most vecCap. They are made at the first batch the merge does not pass
// through, sized by that count, and made again only for a call that may
// write more than they hold (the count only falls, so in practice never).
// A batch's rows have consecutive RIDs below EndPos, so the count bounds
// it; were it short, the batch would end early, never overrun.
func (m *MergeScan) output() ([]*vector.Vector, int) {
	n := int(max(1, min(m.EndPos()-m.basePos, int64(m.vecCap))))
	if m.out == nil || len(m.out) > 0 && m.out[0].Len() < n {
		m.out = vector.NewBatch(m.schema, n).Vecs
	}
	return m.out, n
}

// emitIns writes the run of Ins entries at the cursor's SID as output
// rows from at on, as many as fit below limit, and consumes them. It
// returns the rows written.
func (m *MergeScan) emitIns(out []*vector.Vector, at, limit int) int {
	n := 0
	for e := m.entry(); at+n < limit && e != nil && e.SID == m.sid && e.Type == Ins; e = m.entry() {
		for c, v := range out {
			v.Set(at+n, e.Row[m.cols[c]])
		}
		n++
		m.consume()
	}
	return n
}

// skipStable advances past one stable input row.
func (m *MergeScan) skipStable() error {
	m.off++
	m.sid++
	return m.fill()
}

// Materialize drains a RowSource into boxed rows: the tests' way of
// comparing a merged image with a model. Engines consume vectors.
func Materialize(src RowSource, schema *vtypes.Schema) ([]vtypes.Row, error) {
	var out []vtypes.Row
	for {
		cols, n, err := src.Next()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		for i := 0; i < n; i++ {
			row := make(vtypes.Row, len(cols))
			for c, v := range cols {
				row[c] = v.Get(i)
			}
			out = append(out, row)
		}
	}
}

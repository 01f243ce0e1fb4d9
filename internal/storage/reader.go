package storage

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"vectorwise/internal/compress"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// DecodeChunk decompresses the value chunk (and indicator chunk, if any)
// of column c in group g into a full-group vector. A dictionary-coded
// VARCHAR or DOUBLE chunk decodes to a coded vector (see package vector):
// its one-byte Codes and its dictionary, and no value per row. (A
// dictionary of more than 256 entries, which a file written by an older
// build may hold, fails.) A plain or FSST VARCHAR chunk decodes to an
// arena: its offsets over the chunk's own bytes or codes in the table
// image, and no string.
// A plain BIGINT or DOUBLE chunk decodes to a view of its values in the
// table image (vector.FixedView), read-only like every fetched chunk.
// Any other BIGINT or DATE chunk whose range fits 16 bits decodes narrow
// (narrow.go): 1 or 2 bytes a row over its minimum, which only the
// Scanner reads. It is the only place a chunk is read as a coded, arena,
// view or narrow vector. A Sorted chunk whose values break the order
// fails (ErrUnordered), and a BIGINT or DATE chunk holding a value
// outside its statistics fails (ErrStatistics).
func (t *Table) DecodeChunk(g, c int) (*vector.Vector, error) {
	return t.decodeChunk(g, c, true)
}

// ErrUnordered reports values that break the key order their metadata
// promises (ChunkMeta.Sorted, Table.Ordered): a fault in the image.
var ErrUnordered = errors.New("storage: column promised in key order is not")

// decodeChunk is DecodeChunk when direct; otherwise every chunk decodes
// to values of its own: a dictionary chunk to its rows' values, a plain
// chunk to a copy and an integer chunk to int64s. Either way a Sorted
// chunk is checked with the predicate Builder.flushGroup set the flag
// with, and a BIGINT or DATE chunk against its MinI64 and MaxI64, for
// every fetcher.
func (t *Table) decodeChunk(g, c int, direct bool) (*vector.Vector, error) {
	col := t.Meta.Cols[c]
	raw := t.RawChunk(g, c)
	codec, n, payload, err := compress.ReadHeader(raw)
	if err == nil && n != t.GroupRows(g) {
		err = fmt.Errorf("chunk of %d rows in a group of %d", n, t.GroupRows(g))
	}
	if err != nil {
		return nil, fmt.Errorf("storage: decode %s group %d col %d: %w", t.Meta.Name, g, c, err)
	}
	cm := &t.Meta.Groups[g].Cols[c]
	var width int // of a narrow chunk's offsets
	if direct && col.Kind.StorageClass() == vtypes.ClassI64 && codec != compress.CodecPlainI64 && n > 0 {
		width = narrowWidth(cm)
	}
	var v *vector.Vector
	var sh *vector.Shared
	if direct && (codec == compress.CodecDict || codec == compress.CodecDictF64 || codec == compress.CodecPlainStr || codec == compress.CodecFSST) || width > 0 {
		p := new(packedChunk)
		v, sh = &p.v, &p.sh
	} else {
		v = new(vector.Vector)
	}
	v.Kind = col.Kind
	switch col.Kind.StorageClass() {
	case vtypes.ClassI64:
		var hi uint64 // the largest offset over MinI64 of a value held
		switch {
		case width > 0:
			hi, err = decodeNarrow(sh, raw, cm.MinI64, width)
		case direct && codec == compress.CodecPlainI64:
			v.I64 = plainView[int64](payload, n)
		}
		if width == 0 {
			if v.I64 == nil {
				v.I64, err = compress.DecompressI64(nil, raw)
			}
			hi = primitives.MaxOffsetI64(v.I64, cm.MinI64)
		}
		if rng, ok := statsRange(cm); err == nil && cm.HasStats && n > 0 && (!ok || hi > rng) {
			return nil, t.statsErr(g, c)
		}
	case vtypes.ClassF64:
		switch {
		case sh != nil:
			v.Codes, sh.DictF64, err = compress.DecompressF64Codes(raw)
		case direct && codec == compress.CodecPlainF64:
			v.F64 = plainView[float64](payload, n)
		}
		if v.F64 == nil && v.Codes == nil && err == nil {
			v.F64, err = compress.DecompressF64(nil, raw)
		}
	case vtypes.ClassStr:
		switch {
		case sh == nil: // not direct, or a codec no VARCHAR chunk has
			v.Str, err = compress.DecompressStr(nil, raw)
		case codec == compress.CodecPlainStr || codec == compress.CodecFSST:
			v.Off, sh.Bytes, sh.Symbols, err = compress.DecompressStrArena(raw)
		default:
			v.Codes, sh.Dict, err = compress.DecompressStrCodes(raw)
		}
	case vtypes.ClassBool:
		v.B, err = compress.DecompressBool(nil, raw)
	default:
		return nil, fmt.Errorf("storage: column %q has invalid kind", col.Name)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: decode %s group %d col %d (%s): %w", t.Meta.Name, g, c, col.Name, err)
	}
	if v.Codes != nil || v.Off != nil || width > 0 {
		v.Shared = sh
	}
	if nraw := t.RawNullChunk(g, c); nraw != nil {
		v.Nulls, err = compress.DecompressBool(nil, nraw)
		if err != nil {
			return nil, fmt.Errorf("storage: decode nulls %s group %d col %d: %w", t.Meta.Name, g, c, err)
		}
	}
	if cm.Sorted && (!slices.IsSorted(v.I64) || width > 0 && !narrowSorted(sh) || slices.Contains(v.Nulls, true)) {
		return nil, fmt.Errorf("%w: %s group %d col %d", ErrUnordered, t.Meta.Name, g, c)
	}
	return v, nil
}

// plainView returns the n values of a plain BIGINT or DOUBLE chunk's
// payload as a view of it, or nil when the chunk holds none or its
// payload is short or cannot be viewed (vector.FixedView): then the chunk
// must be decoded.
func plainView[T int64 | float64](payload []byte, n int) []T {
	if len(payload) < 8*n {
		return nil
	}
	return vector.FixedView[T](payload[:8*n])
}

// ChunkFetcher abstracts chunk access so a buffer manager can interpose
// caching and I/O accounting between scans and table data.
type ChunkFetcher interface {
	// FetchColumn returns the decompressed column chunk of (group, col).
	// The returned vector is shared; callers must treat it as read-only.
	FetchColumn(t *Table, group, col int) (*vector.Vector, error)
}

// DirectFetcher decodes chunks on every access, bypassing any cache.
type DirectFetcher struct{}

// FetchColumn implements ChunkFetcher.
func (DirectFetcher) FetchColumn(t *Table, group, col int) (*vector.Vector, error) {
	return t.DecodeChunk(group, col)
}

// DecodedFetcher decodes chunks on every access, as DirectFetcher does,
// but a dictionary chunk, VARCHAR or DOUBLE, and a plain chunk to its
// rows' values: its vectors are never coded, arenas or views of the
// image. The reference engines scan through it, so they share no code
// with the vectorized engine's reads through a dictionary, an arena or a
// view, and a table rebuild through it hands the builder values.
type DecodedFetcher struct{}

// FetchColumn implements ChunkFetcher.
func (DecodedFetcher) FetchColumn(t *Table, group, col int) (*vector.Vector, error) {
	return t.decodeChunk(group, col, false)
}

// Skip is a scan's data-skipping decision, read once per execution from
// its bound filters. Refute skips a row group its chunk statistics refute
// without decompressing any of its chunks. A search narrows a group whose
// chunk of column Col is Sorted to the rows whose value lies in [Lo, Hi]
// (Lo > Hi keeps none), found by two binary searches, so every row it
// leaves out fails the filter; a false Sorted flag fails the decode
// instead. Positions stay global: the rows left out are a gap, and a
// group left empty is skipped.
type Skip struct {
	// Refute reports whether a group's statistics refute the filter; nil
	// refutes none.
	Refute func(*GroupMeta) bool
	// Col is the searched BIGINT or DATE column, an index into the
	// scanner's columns, or -1 for no search.
	Col    int
	Lo, Hi int64
	// Whole, when non-nil, reports whether row group g is read whole all
	// the same. It is asked only of a group the Skip would cut.
	Whole func(g int) bool
}

// ScanStats counts row-group outcomes across the scans of one query (or
// one DB, for cumulative accounting). Partition scans of a parallel
// plan share one ScanStats, so the fields are atomic.
type ScanStats struct {
	// GroupsScanned counts row groups actually decompressed.
	GroupsScanned atomic.Int64
	// GroupsPruned counts row groups skipped by statistics.
	GroupsPruned atomic.Int64
	// RowsSkipped counts the rows of scanned groups that a search
	// left out of the range it read.
	RowsSkipped atomic.Int64
}

// Add accumulates a snapshot into the stats (per-query → cumulative).
func (s *ScanStats) Add(snap ScanStatsSnapshot) {
	s.GroupsScanned.Add(snap.GroupsScanned)
	s.GroupsPruned.Add(snap.GroupsPruned)
	s.RowsSkipped.Add(snap.RowsSkipped)
}

// Snapshot returns a plain-value copy for reporting.
func (s *ScanStats) Snapshot() ScanStatsSnapshot {
	return ScanStatsSnapshot{
		GroupsScanned: s.GroupsScanned.Load(),
		GroupsPruned:  s.GroupsPruned.Load(),
		RowsSkipped:   s.RowsSkipped.Load(),
	}
}

// ScanStatsSnapshot is the JSON-friendly form of ScanStats.
type ScanStatsSnapshot struct {
	GroupsScanned int64 `json:"groups_scanned"`
	GroupsPruned  int64 `json:"groups_pruned"`
	RowsSkipped   int64 `json:"rows_skipped"`
}

// Scanner iterates a table's row groups column-wise, serving vectors of
// at most vecSize rows. It reports the global start position of every
// batch so callers (the PDT merge scan) can align positional deltas.
// Over a column the table promises Ordered its keys never decrease, or it
// fails: decode verifies each chunk, and load where two chunks it reads
// meet (follow). It is the one reader of a narrow chunk (narrow.go): it
// searches and checks its offsets in place and widens each batch's rows.
type Scanner struct {
	t       *Table
	cols    []int
	fetch   ChunkFetcher
	skip    Skip
	stats   *ScanStats
	vecSize int

	g    int
	off  int   // offset within current group
	end  int   // end of the current group's range to read
	base int64 // global position of current group start
	pos  int64 // global position of the last batch's first row
	// col holds per column the current group's chunk once loaded and the
	// header of the batch Next returns, which out points at. Both are
	// reused from group to group and batch to batch.
	col    []scanCol
	loaded bool
	out    []*vector.Vector

	gLo, gHi int   // group range [gLo, gHi); gHi == 0 means all groups
	lo, hi   int64 // global positions of the range's first row and its end

	ord []ordCol // the columns Table.Ordered promises
}

// scanCol is one column of a Scanner.
type scanCol struct {
	chunk *vector.Vector // the current group's, once loaded
	view  vector.Vector  // the batch Next returns
	// wide holds a narrow chunk's batch rows, widened: the column's own,
	// sized as core.outVectors sizes an operator's output.
	wide []int64
}

// ordCol is an Ordered scanner column and the last key of its latest
// loaded chunk, MinInt64 before the first.
type ordCol struct {
	i    int
	last int64
}

// NewScanner creates a scanner over the given column indexes. fetch may
// be nil (DirectFetcher); skip may be nil (no skipping); vecSize <= 0
// selects vector.DefaultSize.
func NewScanner(t *Table, cols []int, fetch ChunkFetcher, skip *Skip, vecSize int) *Scanner {
	if fetch == nil {
		fetch = DirectFetcher{}
	}
	if vecSize <= 0 {
		vecSize = vector.DefaultSize
	}
	s := &Scanner{t: t, cols: cols, fetch: fetch, skip: Skip{Col: -1}, vecSize: vecSize}
	if skip != nil {
		s.skip = *skip
	}
	s.col = make([]scanCol, len(cols))
	s.out = make([]*vector.Vector, len(cols))
	for i, c := range cols {
		s.out[i] = &s.col[i].view
		if t.Ordered(c) {
			s.ord = append(s.ord, ordCol{i, math.MinInt64})
		}
	}
	s.bounds()
	return s
}

// SetStats installs a row-group outcome counter (may be shared across
// the partition scanners of one query; nil disables counting).
func (s *Scanner) SetStats(st *ScanStats) { s.stats = st }

// Next returns the next batch of column vectors (views into the group
// chunks, coded or arenas where the chunk is, and a narrow chunk's rows
// widened to plain I64) and the row count; n == 0 signals end of table.
// The vectors and the slice holding them are the scanner's own and valid
// until the next call: the chunks they view stay immutable, but their
// headers are rewritten and a narrow column's values overwritten. Every
// holder of a batch keeps to that: MergeScan passes a batch through only
// until its own next call and copies the rest, XchgUnion's producers copy
// a batch (copyBatch) before they pull the next, a HashJoin's output
// refers to its probe batch only until the join's next call, and Rows
// hands a batch out only until the next NextBatch, Next or Close. With
// BasePos, StartPos and EndPos the scanner is the positioned source a
// delta merge reads (pdt.PositionedSource, satisfied structurally: neither
// package imports the other), so the merge aligns deltas across skipped
// rows and partition ranges and emits the inserted rows of a gap from
// their entries alone.
func (s *Scanner) Next() (vecs []*vector.Vector, n int, err error) {
	limit := s.t.Groups()
	if s.gHi > 0 && s.gHi < limit {
		limit = s.gHi
	}
	for {
		if s.g >= limit {
			return nil, 0, nil
		}
		grp := &s.t.Meta.Groups[s.g]
		if !s.loaded {
			if s.skip.Refute != nil && s.skip.Refute(grp) && s.cut() {
				if s.stats != nil {
					s.stats.GroupsPruned.Add(1)
				}
				s.base += int64(grp.Rows)
				s.g++
				continue
			}
			if s.stats != nil {
				s.stats.GroupsScanned.Add(1)
			}
			if err := s.load(grp); err != nil {
				return nil, 0, err
			}
			if s.stats != nil && s.end-s.off < grp.Rows {
				s.stats.RowsSkipped.Add(int64(grp.Rows - (s.end - s.off)))
			}
			s.loaded = true
		}
		if s.off >= s.end {
			s.base += int64(grp.Rows)
			s.g++
			s.off = 0
			s.loaded = false
			s.drop() // hold no finished group's chunks
			continue
		}
		n = s.end - s.off
		if n > s.vecSize {
			n = s.vecSize
		}
		for i := range s.col {
			c := &s.col[i]
			if c.chunk.Narrow() {
				c.widen(s.off, n, s.vecSize)
			} else {
				sliceInto(&c.view, c.chunk, s.off, s.off+n)
			}
		}
		s.pos = s.base + int64(s.off)
		s.off += n
		return s.out, n, nil
	}
}

// widen makes the column's view the int64 values of its narrow chunk's
// rows [lo, lo+n), widened into wide. wide grows to min(vecSize,
// max(n, 2×its size)) slots, as core.outVectors sizes an operator's
// output: a point lookup widens into a few slots, and a full scan regrows
// about log₂(vecSize) times.
func (c *scanCol) widen(lo, n, vecSize int) {
	if len(c.wide) < n {
		c.wide = make([]int64, min(vecSize, max(n, 2*len(c.wide))))
	}
	v := c.chunk
	c.view = vector.Vector{Kind: v.Kind, I64: c.wide[:n]}
	widenRows(c.view.I64, v.Shared, lo)
	if v.Nulls != nil {
		c.view.Nulls = v.Nulls[lo : lo+n]
	}
}

// drop lets go of the current group's chunks.
func (s *Scanner) drop() {
	for i := range s.col {
		s.col[i].chunk = nil
	}
}

// BasePos returns the global position of the last batch's first row.
func (s *Scanner) BasePos() int64 { return s.pos }

// cut reports whether the Skip may cut the current group.
func (s *Scanner) cut() bool { return s.skip.Whole == nil || !s.skip.Whole(s.g) }

// load fetches the current group's chunks and sets [off, end) to the rows
// the scan reads: the group, or the range a search narrows it to. A search
// fetches the searched chunk first, and a range it leaves empty fetches
// nothing more.
func (s *Scanner) load(grp *GroupMeta) error {
	s.off, s.end = 0, grp.Rows
	searched := -1
	if k := s.skip.Col; k >= 0 && grp.Cols[s.cols[k]].Sorted {
		v, err := s.fetch.FetchColumn(s.t, s.g, s.cols[k])
		if err != nil {
			return err
		}
		s.col[k].chunk, searched = v, k
		off, end := searchChunk(v, s.skip.Lo, s.skip.Hi)
		if (off > 0 || end < grp.Rows) && s.cut() {
			if s.off, s.end = off, end; off == end {
				return s.follow()
			}
		}
	}
	for i, c := range s.cols {
		if i == searched {
			continue
		}
		v, err := s.fetch.FetchColumn(s.t, s.g, c)
		if err != nil {
			return err
		}
		s.col[i].chunk = v
	}
	return s.follow()
}

// follow checks that each loaded chunk of an Ordered column starts at or
// above the column's last key, and takes its own last key: with decode's
// check within a chunk, the rest of Table.Ordered's promise, O(1) a group.
// A narrow chunk's ends are read in place.
func (s *Scanner) follow() error {
	for k, o := range s.ord {
		first, last, ok := chunkEnds(s.col[o.i].chunk)
		if !ok {
			continue // not fetched (a search left the group empty first) or empty
		}
		if first < o.last {
			return fmt.Errorf("%w: %s group %d col %d starts at %d, below %d before it", ErrUnordered, s.t.Meta.Name, s.g, s.cols[o.i], first, o.last)
		}
		s.ord[k].last = last
	}
	return nil
}

// StartPos returns the global position of the scan range's first row:
// 0, or the start of the group range for partition scans.
func (s *Scanner) StartPos() int64 { return s.lo }

// EndPos returns the exclusive global position bound of the scan's
// range: the table's row count, or the end of the group range for
// partition scans.
func (s *Scanner) EndPos() int64 { return s.hi }

// bounds sets StartPos and EndPos from the group range, once per range:
// a merge scan asks for them every batch.
func (s *Scanner) bounds() {
	s.lo, s.hi = 0, 0
	for g := range s.t.Groups() {
		rows := int64(s.t.GroupRows(g))
		if g < s.gLo {
			s.lo += rows
		}
		if g < s.gHi || s.gHi == 0 {
			s.hi += rows
		}
	}
}

// Reset rewinds the scanner to the beginning of the table (or of its
// group range, if one was set), holding no group's chunks or last keys.
func (s *Scanner) Reset() {
	s.g, s.off, s.base, s.loaded = s.gLo, 0, s.StartPos(), false
	s.drop()
	for k := range s.ord {
		s.ord[k].last = math.MinInt64
	}
}

// SetGroupRange restricts the scanner to row groups [lo, hi) — the
// partitioning unit of parallel scans. Positions remain global.
func (s *Scanner) SetGroupRange(lo, hi int) {
	if hi > s.t.Groups() {
		hi = s.t.Groups()
	}
	if lo < 0 {
		lo = 0
	}
	s.gLo, s.gHi = lo, hi
	s.bounds()
	s.Reset()
}

// packedChunk is a decoded chunk that may be coded, an arena or narrow:
// its vector and the Shared every view of it points to, in one
// allocation.
type packedChunk struct {
	v  vector.Vector
	sh vector.Shared
}

// sliceInto makes dst a view of v[lo:hi] without copying, codes and arena
// included: a view's codes or offsets are its own, the dictionary or
// bytes they index the chunk's.
func sliceInto(dst, v *vector.Vector, lo, hi int) {
	*dst = vector.Vector{Kind: v.Kind, Shared: v.Shared}
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		dst.I64 = v.I64[lo:hi]
	case vtypes.ClassF64:
		if v.Codes != nil {
			dst.Codes = v.Codes[lo:hi]
		} else {
			dst.F64 = v.F64[lo:hi]
		}
	case vtypes.ClassStr:
		switch {
		case v.Codes != nil:
			dst.Codes = v.Codes[lo:hi]
		case v.Off != nil:
			dst.Off = v.Off[lo : hi+1]
		default:
			dst.Str = v.Str[lo:hi]
		}
	case vtypes.ClassBool:
		dst.B = v.B[lo:hi]
	}
	if v.Nulls != nil {
		dst.Nulls = v.Nulls[lo:hi]
	}
}

// ReadAllColumn reads an entire column into one contiguous vector of
// values, never coded, an arena or narrow, for tests and benchmark setup
// (every engine reads through a Scanner of its own): it scans the column
// and copies each batch. A plain VARCHAR chunk's strings are views of the
// table image.
func (t *Table) ReadAllColumn(c int) (*vector.Vector, error) {
	out := vector.New(t.Meta.Cols[c].Kind, int(t.Rows()))
	if t.Meta.Cols[c].Nullable {
		out.EnsureNulls()
	}
	sc := NewScanner(t, []int{c}, nil, nil, 0)
	for off := 0; ; {
		vecs, n, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		out.CopyFrom(vecs[0], 0, off, n)
		off += n
	}
}

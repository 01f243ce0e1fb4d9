package storage

import (
	"fmt"
	"sort"
	"sync/atomic"

	"vectorwise/internal/compress"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// DecodeChunk decompresses the value chunk (and indicator chunk, if any)
// of column c in group g into a full-group vector. A dictionary-coded
// VARCHAR or DOUBLE chunk whose dictionary fits one-byte codes decodes to
// a coded vector (see package vector): its Codes and its dictionary, and
// no value per row. A plain VARCHAR chunk decodes to an arena: its
// offsets over the chunk's own bytes in the table image, and no string.
// It is the only place a chunk is read as a coded or arena vector.
func (t *Table) DecodeChunk(g, c int) (*vector.Vector, error) {
	return t.decodeChunk(g, c, true)
}

// decodeChunk is DecodeChunk; without codes a dictionary chunk decodes to
// its rows' values.
func (t *Table) decodeChunk(g, c int, codes bool) (*vector.Vector, error) {
	col := t.Meta.Cols[c]
	raw := t.RawChunk(g, c)
	var v *vector.Vector
	var sh *vector.Shared
	codec, _, _, _ := compress.ReadHeader(raw)
	if codes && (codec == compress.CodecDict || codec == compress.CodecDictF64 || codec == compress.CodecPlainStr) {
		p := new(packedChunk)
		v, sh = &p.v, &p.sh
	} else {
		v = new(vector.Vector)
	}
	v.Kind = col.Kind
	var err error
	switch col.Kind.StorageClass() {
	case vtypes.ClassI64:
		v.I64, err = compress.DecompressI64(nil, raw)
	case vtypes.ClassF64:
		if sh != nil {
			v.F64, v.Codes, sh.DictF64, err = compress.DecompressF64Codes(raw)
		} else {
			v.F64, err = compress.DecompressF64(nil, raw)
		}
	case vtypes.ClassStr:
		switch {
		case sh == nil:
			v.Str, err = compress.DecompressStr(nil, raw)
		case codec == compress.CodecPlainStr:
			v.Off, sh.Bytes, err = compress.DecompressStrArena(raw)
		default:
			v.Str, v.Codes, sh.Dict, err = compress.DecompressStrCodes(raw)
		}
	case vtypes.ClassBool:
		v.B, err = compress.DecompressBool(nil, raw)
	default:
		return nil, fmt.Errorf("storage: column %q has invalid kind", col.Name)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: decode %s group %d col %d: %w", t.Meta.Name, g, c, err)
	}
	if v.Codes != nil || v.Off != nil {
		v.Shared = sh
	}
	if nraw := t.RawNullChunk(g, c); nraw != nil {
		v.Nulls, err = compress.DecompressBool(nil, nraw)
		if err != nil {
			return nil, fmt.Errorf("storage: decode nulls %s group %d col %d: %w", t.Meta.Name, g, c, err)
		}
	}
	return v, nil
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
// but a dictionary chunk, VARCHAR or DOUBLE, and a plain VARCHAR chunk to
// its rows' values: its vectors are never coded or arenas. The reference
// engines scan through it, so they share no code with the vectorized
// engine's reads through a dictionary or an arena, and a table rebuild
// through it hands the builder values.
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
// leaves out fails the filter. Positions stay global: the rows left out
// are a gap, and a group left empty is skipped.
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
	// cur holds the current group's chunks once loaded. views holds the
	// headers of the batch Next returns and out points at them. All three
	// are reused from group to group and batch to batch.
	cur    []*vector.Vector
	loaded bool
	views  []vector.Vector
	out    []*vector.Vector

	gLo, gHi int // group range [gLo, gHi); gHi == 0 means all groups
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
	s.cur = make([]*vector.Vector, len(cols))
	s.views = make([]vector.Vector, len(cols))
	s.out = make([]*vector.Vector, len(cols))
	for i := range s.out {
		s.out[i] = &s.views[i]
	}
	return s
}

// SetStats installs a row-group outcome counter (may be shared across
// the partition scanners of one query; nil disables counting).
func (s *Scanner) SetStats(st *ScanStats) { s.stats = st }

// Next returns the next batch of column vectors (views into the group
// chunks, coded or arenas where the chunk is) and the row count; n == 0
// signals end of table. The vectors and the slice holding them are the
// scanner's own and valid until the next call: the chunks they view stay
// immutable, but their headers are rewritten. With BasePos, StartPos and
// EndPos the scanner is the positioned source a delta merge reads
// (pdt.PositionedSource, satisfied structurally: neither package imports
// the other), so the merge aligns deltas across skipped rows and
// partition ranges and emits the inserted rows of a gap from their
// entries alone.
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
			clear(s.cur) // hold no finished group's chunks
			continue
		}
		n = s.end - s.off
		if n > s.vecSize {
			n = s.vecSize
		}
		for i, v := range s.cur {
			sliceInto(&s.views[i], v, s.off, s.off+n)
		}
		s.pos = s.base + int64(s.off)
		s.off += n
		return s.out, n, nil
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
		s.cur[k], searched = v, k
		off := sort.Search(len(v.I64), func(i int) bool { return v.I64[i] >= s.skip.Lo })
		end := max(off, sort.Search(len(v.I64), func(i int) bool { return v.I64[i] > s.skip.Hi }))
		if (off > 0 || end < grp.Rows) && s.cut() {
			if s.off, s.end = off, end; off == end {
				return nil
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
		s.cur[i] = v
	}
	return nil
}

// StartPos returns the global position of the scan range's first row:
// 0, or the start of the group range for partition scans.
func (s *Scanner) StartPos() int64 {
	var start int64
	for g := 0; g < s.gLo; g++ {
		start += int64(s.t.GroupRows(g))
	}
	return start
}

// EndPos returns the exclusive global position bound of the scan's
// range: the table's row count, or the end of the group range for
// partition scans.
func (s *Scanner) EndPos() int64 {
	limit := s.t.Groups()
	if s.gHi > 0 && s.gHi < limit {
		limit = s.gHi
	}
	var end int64
	for g := 0; g < limit; g++ {
		end += int64(s.t.GroupRows(g))
	}
	return end
}

// Reset rewinds the scanner to the beginning of the table (or of its
// group range, if one was set), holding no group's chunks.
func (s *Scanner) Reset() {
	s.g, s.off, s.base, s.loaded = s.gLo, 0, s.StartPos(), false
	clear(s.cur)
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
	s.Reset()
}

// packedChunk is a decoded chunk that may be coded or an arena: its
// vector and the Shared every view of it points to, in one allocation.
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

// ReadAllColumn decodes an entire column into one contiguous vector of
// values, never coded or an arena (the column-at-a-time baseline engine
// and tests use this; the vectorized engine never does). A plain VARCHAR
// chunk's strings are views of the table image.
func (t *Table) ReadAllColumn(c int) (*vector.Vector, error) {
	col := t.Meta.Cols[c]
	out := vector.New(col.Kind, int(t.Rows()))
	if anyNullable(t, c) {
		out.EnsureNulls()
	}
	off := 0
	for g := 0; g < t.Groups(); g++ {
		v, err := t.DecodeChunk(g, c)
		if err != nil {
			return nil, err
		}
		out.CopyFrom(v, 0, off, t.GroupRows(g))
		off += t.GroupRows(g)
	}
	return out, nil
}

func anyNullable(t *Table, c int) bool {
	return t.Meta.Cols[c].Nullable
}

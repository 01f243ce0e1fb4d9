package storage

import (
	"fmt"
	"sync/atomic"

	"vectorwise/internal/compress"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// DecodeChunk decompresses the value chunk (and indicator chunk, if any)
// of column c in group g into a full-group vector. A dictionary-coded
// VARCHAR or DOUBLE chunk whose dictionary fits one-byte codes decodes to
// a coded vector (see package vector): its Codes and its dictionary, and
// no value per row. It is the only place a chunk is read as a coded
// vector.
func (t *Table) DecodeChunk(g, c int) (*vector.Vector, error) {
	return t.decodeChunk(g, c, true)
}

// decodeChunk is DecodeChunk; without codes a dictionary chunk decodes to
// its rows' values.
func (t *Table) decodeChunk(g, c int, codes bool) (*vector.Vector, error) {
	col := t.Meta.Cols[c]
	v := &vector.Vector{Kind: col.Kind}
	raw := t.RawChunk(g, c)
	var err error
	switch col.Kind.StorageClass() {
	case vtypes.ClassI64:
		v.I64, err = compress.DecompressI64(nil, raw)
	case vtypes.ClassF64:
		if codes {
			v.F64, v.Codes, v.DictF64, err = compress.DecompressF64Codes(raw)
		} else {
			v.F64, err = compress.DecompressF64(nil, raw)
		}
	case vtypes.ClassStr:
		if codes {
			v.Str, v.Codes, v.Dict, err = compress.DecompressStrCodes(raw)
		} else {
			v.Str, err = compress.DecompressStr(nil, raw)
		}
	case vtypes.ClassBool:
		v.B, err = compress.DecompressBool(nil, raw)
	default:
		return nil, fmt.Errorf("storage: column %q has invalid kind", col.Name)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: decode %s group %d col %d: %w", t.Meta.Name, g, c, err)
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
// but a dictionary chunk, VARCHAR or DOUBLE, to its rows' values: its
// vectors are never coded. The reference engines scan through it, so they
// share no code with the vectorized engine's reads through a dictionary,
// and a table rebuild through it hands the builder values.
type DecodedFetcher struct{}

// FetchColumn implements ChunkFetcher.
func (DecodedFetcher) FetchColumn(t *Table, group, col int) (*vector.Vector, error) {
	return t.decodeChunk(group, col, false)
}

// PruneFn decides whether row group g can be skipped based on its chunk
// statistics. Returning true skips the group without decompressing any
// of its chunks. The group index lets delta-aware callers map the group
// to its global row range.
type PruneFn func(g int, grp *GroupMeta) bool

// ScanStats counts row-group outcomes across the scans of one query (or
// one DB, for cumulative accounting). Partition scans of a parallel
// plan share one ScanStats, so the fields are atomic.
type ScanStats struct {
	// GroupsScanned counts row groups actually decompressed.
	GroupsScanned atomic.Int64
	// GroupsPruned counts row groups skipped by statistics.
	GroupsPruned atomic.Int64
}

// Add accumulates a snapshot into the stats (per-query → cumulative).
func (s *ScanStats) Add(snap ScanStatsSnapshot) {
	s.GroupsScanned.Add(snap.GroupsScanned)
	s.GroupsPruned.Add(snap.GroupsPruned)
}

// Snapshot returns a plain-value copy for reporting.
func (s *ScanStats) Snapshot() ScanStatsSnapshot {
	return ScanStatsSnapshot{
		GroupsScanned: s.GroupsScanned.Load(),
		GroupsPruned:  s.GroupsPruned.Load(),
	}
}

// ScanStatsSnapshot is the JSON-friendly form of ScanStats.
type ScanStatsSnapshot struct {
	GroupsScanned int64 `json:"groups_scanned"`
	GroupsPruned  int64 `json:"groups_pruned"`
}

// Scanner iterates a table's row groups column-wise, serving vectors of
// at most vecSize rows. It reports the global start position of every
// batch so callers (the PDT merge scan) can align positional deltas.
type Scanner struct {
	t       *Table
	cols    []int
	fetch   ChunkFetcher
	prune   PruneFn
	stats   *ScanStats
	vecSize int

	g    int
	off  int   // offset within current group
	base int64 // global position of current group start
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
// be nil (DirectFetcher); prune may be nil (no pruning); vecSize <= 0
// selects vector.DefaultSize.
func NewScanner(t *Table, cols []int, fetch ChunkFetcher, prune PruneFn, vecSize int) *Scanner {
	if fetch == nil {
		fetch = DirectFetcher{}
	}
	if vecSize <= 0 {
		vecSize = vector.DefaultSize
	}
	s := &Scanner{t: t, cols: cols, fetch: fetch, prune: prune, vecSize: vecSize}
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
// chunks, coded where the chunk is), the global row position of the first
// row, and the row count. n == 0 signals end of table. The vectors and the
// slice holding them are the scanner's own and valid until the next call:
// the chunks they view stay immutable, but their headers are rewritten.
func (s *Scanner) Next() (vecs []*vector.Vector, pos int64, n int, err error) {
	limit := s.t.Groups()
	if s.gHi > 0 && s.gHi < limit {
		limit = s.gHi
	}
	for {
		if s.g >= limit {
			return nil, 0, 0, nil
		}
		grp := &s.t.Meta.Groups[s.g]
		if !s.loaded {
			if s.prune != nil && s.prune(s.g, grp) {
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
			for i, c := range s.cols {
				v, ferr := s.fetch.FetchColumn(s.t, s.g, c)
				if ferr != nil {
					return nil, 0, 0, ferr
				}
				s.cur[i] = v
			}
			s.loaded = true
		}
		if s.off >= grp.Rows {
			s.base += int64(grp.Rows)
			s.g++
			s.off = 0
			s.loaded = false
			clear(s.cur) // hold no finished group's chunks
			continue
		}
		n = grp.Rows - s.off
		if n > s.vecSize {
			n = s.vecSize
		}
		for i, v := range s.cur {
			sliceInto(&s.views[i], v, s.off, s.off+n)
		}
		pos = s.base + int64(s.off)
		s.off += n
		return s.out, pos, n, nil
	}
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

// PositionedScanner is a Scanner in the shape a positional delta merge
// reads (pdt.PositionedSource, satisfied structurally: neither package
// imports the other): batches without their position, and the global
// start position of the last batch on the side, so the merge can align
// deltas across pruned row-group gaps and partition ranges. The rows of
// a pruned group are never read: the merge emits the group's inserted
// rows from their delta entries alone.
type PositionedScanner struct {
	*Scanner
	pos int64
}

// Next returns the next batch of column vectors and its row count.
func (p *PositionedScanner) Next() ([]*vector.Vector, int, error) {
	vecs, pos, n, err := p.Scanner.Next()
	p.pos = pos
	return vecs, n, err
}

// BasePos returns the global position of the last batch's first row.
func (p *PositionedScanner) BasePos() int64 { return p.pos }

// Reset rewinds the scanner to the beginning of the table (or of its
// group range, if one was set).
func (s *Scanner) Reset() {
	s.g, s.off, s.base, s.loaded = s.gLo, 0, s.StartPos(), false
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

// sliceInto makes dst a view of v[lo:hi] without copying, codes included.
func sliceInto(dst, v *vector.Vector, lo, hi int) {
	*dst = vector.Vector{Kind: v.Kind}
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		dst.I64 = v.I64[lo:hi]
	case vtypes.ClassF64:
		if v.Codes != nil {
			dst.Codes, dst.DictF64 = v.Codes[lo:hi], v.DictF64
		} else {
			dst.F64 = v.F64[lo:hi]
		}
	case vtypes.ClassStr:
		if v.Codes != nil {
			dst.Codes, dst.Dict = v.Codes[lo:hi], v.Dict
		} else {
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
// values, never coded (the column-at-a-time baseline engine and tests
// use this; the vectorized engine never does).
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

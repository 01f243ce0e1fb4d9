package core

import (
	"cmp"
	"math"
	"slices"

	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// colBuf is the columnar buffer the stop-and-go operators (hash join
// build, sort, aggregate keys) retain one column of their input in. Rows
// arrive a batch at a time through append — one typed loop per column,
// never a boxed value per cell — and leave through gather, which fills an
// output vector from a list of row ids. Values live in fixed-size chunks
// (primitives.ChunkRows), so growing the buffer never copies what it
// already holds; only the first chunk starts small, so a 25-row build
// side does not pay for 8 192 slots. Null indicators are stored the same
// way, from the first vector that carries any.
type colBuf struct {
	kind  vtypes.Kind
	n     int // rows stored
	i64   [][]int64
	f64   [][]float64
	str   [][]string
	b     [][]bool
	nulls [][]bool // nil until a vector with a null indicator arrives
}

const chunkMask = primitives.ChunkRows - 1

// notNull is the source padNulls copies "not NULL" indicators from.
var notNull [vector.DefaultSize]bool

// columnRef is implemented by an expression that is a plain reference to
// an input column (expr.Col).
type columnRef interface{ Column() int }

// newColBufs makes one empty buffer per column of schema.
func newColBufs(schema *vtypes.Schema) []*colBuf {
	out := make([]*colBuf, schema.Len())
	for i, c := range schema.Cols {
		out[i] = &colBuf{kind: c.Kind}
	}
	return out
}

// keyColBufs returns the buffers for a materializing operator's key
// expressions over an input stored in payload: a key that is a plain
// column reference shares that column's buffer (stored once, and
// shared[i] tells the caller not to append it again); any other key gets
// a buffer of its own.
func keyColBufs(keys []Expr, payload []*colBuf) (bufs []*colBuf, shared []bool) {
	bufs, shared = make([]*colBuf, len(keys)), make([]bool, len(keys))
	for i, e := range keys {
		if ref, ok := e.(columnRef); ok && ref.Column() < len(payload) {
			bufs[i], shared[i] = payload[ref.Column()], true
		} else {
			bufs[i] = &colBuf{kind: e.Kind()}
		}
	}
	return bufs, shared
}

// appendChunks appends src's live rows (dense copy, or compaction
// through sel) to a chunked column holding `have` rows.
func appendChunks[T any](chunks [][]T, have int, src []T, sel []int32, n int) [][]T {
	for off := 0; off < n; {
		var dst []T
		chunks, dst = growChunks(chunks, have, n-off)
		if sel == nil {
			copy(dst, src[off:])
		} else {
			primitives.CompactSel(dst, src, sel[off:], len(dst))
		}
		off, have = off+len(dst), have+len(dst)
	}
	return chunks
}

// appendCompacted is appendChunks for a vector whose values are read as
// they are stored, coded or an arena: compact writes the values of
// len(dst) rows into dst, rows sel[:len(dst)], or rows [lo, lo+len(dst))
// when sel is nil.
func appendCompacted[T any](chunks [][]T, have int, sel []int32, n int, compact func(dst []T, lo int, sel []int32)) [][]T {
	for off := 0; off < n; {
		var dst []T
		chunks, dst = growChunks(chunks, have, n-off)
		if sel == nil {
			compact(dst, off, nil)
		} else {
			compact(dst, 0, sel[off:off+len(dst)])
		}
		off, have = off+len(dst), have+len(dst)
	}
	return chunks
}

// growChunks makes room after the `have` rows of a chunked column for up
// to want more, and returns the slots it made, in the last chunk: as many
// as fit there, at least one.
func growChunks[T any](chunks [][]T, have, want int) ([][]T, []T) {
	fill := have & chunkMask
	if k := len(chunks); fill == 0 && k < cap(chunks) && chunks[:k+1][k] != nil {
		chunks = chunks[:k+1] // a chunk retainChunks emptied
	} else if fill == 0 {
		// The first chunk grows on demand; later ones come at full size.
		c := 0
		if have > 0 {
			c = primitives.ChunkRows
		}
		chunks = append(chunks, make([]T, 0, c))
	}
	last := len(chunks) - 1
	m := min(want, primitives.ChunkRows-fill)
	if fill+m > cap(chunks[last]) { // only ever the first chunk: double it
		chunks[last] = slices.Grow(chunks[last], min(max(m, fill), primitives.ChunkRows-fill))
	}
	chunks[last] = chunks[last][:fill+m]
	return chunks, chunks[last][fill:]
}

// append stores the n live rows of v (sel == nil: rows 0..n-1) with
// their null indicators.
func (c *colBuf) append(v *vector.Vector, sel []int32, n int) {
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		c.i64 = appendChunks(c.i64, c.n, v.I64, sel, n)
	case vtypes.ClassF64:
		if v.Codes != nil {
			c.f64 = appendCompacted(c.f64, c.n, sel, n, func(d []float64, lo int, sel []int32) {
				primitives.CompactCodes(d, v.Codes[lo:], v.DictF64(), sel, len(d))
			})
		} else {
			c.f64 = appendChunks(c.f64, c.n, v.F64, sel, n)
		}
	case vtypes.ClassStr:
		switch {
		case v.Codes != nil:
			c.str = appendCompacted(c.str, c.n, sel, n, func(d []string, lo int, sel []int32) {
				primitives.CompactCodes(d, v.Codes[lo:], v.Dict(), sel, len(d))
			})
		case v.Off != nil:
			c.str = appendCompacted(c.str, c.n, sel, n, func(d []string, lo int, sel []int32) {
				vector.CompactArena(d, v.Off[lo:], v.Shared.Bytes, sel)
			})
		default:
			c.str = appendChunks(c.str, c.n, v.Str, sel, n)
		}
	case vtypes.ClassBool:
		c.b = appendChunks(c.b, c.n, v.B, sel, n)
	}
	if v.Nulls != nil {
		c.padNulls(c.n) // rows stored before the first indicator arrived
		c.nulls = appendChunks(c.nulls, c.n, v.Nulls, sel, n)
	} else if c.nulls != nil {
		c.padNulls(c.n + n)
	}
	c.n += n
}

// padNulls extends the null indicators with "not NULL" up to rows.
func (c *colBuf) padNulls(rows int) {
	have := 0
	if k := len(c.nulls); k > 0 {
		have = (k-1)*primitives.ChunkRows + len(c.nulls[k-1])
	}
	for have < rows {
		m := min(rows-have, len(notNull))
		c.nulls = appendChunks(c.nulls, have, notNull[:], nil, m)
		have += m
	}
}

// gather fills dst from the rows idx[0..n): dst[pos[k]] = row idx[k], or
// dst[k] when pos is nil. A negative idx is an outer join's unmatched
// row, NULL over the zero value; a caller that passes one gives dst a
// null indicator beforehand.
func (c *colBuf) gather(dst *vector.Vector, pos, idx []int32, n int) {
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		primitives.GatherChunks(dst.I64, pos, c.i64, idx, n)
	case vtypes.ClassF64:
		primitives.GatherChunks(dst.F64, pos, c.f64, idx, n)
	case vtypes.ClassStr:
		primitives.GatherChunks(dst.Str, pos, c.str, idx, n)
	case vtypes.ClassBool:
		primitives.GatherChunks(dst.B, pos, c.b, idx, n)
	}
	if c.nulls != nil || dst.Nulls != nil {
		dst.EnsureNulls()
		primitives.GatherChunksNull(dst.Nulls, pos, c.nulls, idx, n)
	}
}

// retain keeps the stored rows ids (ascending) and drops every other row,
// in place: a bounded sort's way of making room.
func (c *colBuf) retain(ids []int32) {
	c.i64, c.f64 = retainChunks(c.i64, ids), retainChunks(c.f64, ids)
	c.str, c.b = retainChunks(c.str, ids), retainChunks(c.b, ids)
	c.nulls = retainChunks(c.nulls, ids)
	c.n = len(ids)
}

// retainChunks moves row ids[k] to row k and truncates the column there.
// The chunks it empties stay behind the slice's length, where
// appendChunks finds them again.
func retainChunks[T any](chunks [][]T, ids []int32) [][]T {
	if chunks == nil {
		return nil
	}
	for k, r := range ids {
		*chunkPtr(chunks, uint32(k)) = chunkAt(chunks, uint32(r))
	}
	full, part := len(ids)>>primitives.ChunkShift, len(ids)&chunkMask
	if part == 0 {
		return chunks[:full]
	}
	chunks[full] = chunks[full][:part]
	return chunks[:full+1]
}

// liveAt returns the position of live row k under sel (nil: dense).
func liveAt(sel []int32, k int) int32 {
	if sel == nil {
		return int32(k)
	}
	return sel[k]
}

func chunkAt[T any](chunks [][]T, r uint32) T {
	return chunks[r>>primitives.ChunkShift][r&chunkMask]
}

func chunkPtr[T any](chunks [][]T, r uint32) *T {
	return &chunks[r>>primitives.ChunkShift][r&chunkMask]
}

// isNull reports whether stored row r is NULL.
func (c *colBuf) isNull(r uint32) bool { return c.nulls != nil && chunkAt(c.nulls, r) }

// equalAt reports whether stored row g equals v[i], NULL equal to NULL
// only (grouping semantics; join keys never store or probe a NULL). Two
// DOUBLEs are equal as vtypes.Value.Compare says: -0 equals +0, and every
// NaN equals every NaN.
func (c *colBuf) equalAt(g uint32, v *vector.Vector, i int32) bool {
	gn, vn := c.isNull(g), v.Nulls != nil && v.Nulls[i]
	if gn || vn {
		return gn && vn
	}
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		return chunkAt(c.i64, g) == v.I64[i]
	case vtypes.ClassF64:
		return sameF64(chunkAt(c.f64, g), v.F64[i])
	case vtypes.ClassStr:
		return chunkAt(c.str, g) == v.Str[i]
	default:
		return chunkAt(c.b, g) == v.B[i]
	}
}

// markUnequal is one key column's share of a hash table's EqFn: it sets
// miss[k] for every candidate k whose stored row vals[k] differs from
// v[rows[k]], in one typed loop when neither side carries NULLs.
func (c *colBuf) markUnequal(v *vector.Vector, rows []int32, vals []uint32, miss []bool, n int) {
	switch cls := c.kind.StorageClass(); {
	case c.nulls != nil || v.Nulls != nil:
		for k := 0; k < n; k++ {
			if !miss[k] && !c.equalAt(vals[k], v, rows[k]) {
				miss[k] = true
			}
		}
	case cls == vtypes.ClassI64:
		markUnequalChunks(c.i64, v.I64, rows, vals, miss, n)
	case cls == vtypes.ClassF64:
		for k := 0; k < n; k++ {
			if !miss[k] && !sameF64(chunkAt(c.f64, vals[k]), v.F64[rows[k]]) {
				miss[k] = true
			}
		}
	case cls == vtypes.ClassStr:
		markUnequalChunks(c.str, v.Str, rows, vals, miss, n)
	default:
		markUnequalChunks(c.b, v.B, rows, vals, miss, n)
	}
}

func markUnequalChunks[T comparable](chunks [][]T, src []T, rows []int32, vals []uint32, miss []bool, n int) {
	for k := 0; k < n; k++ {
		if !miss[k] && chunkAt(chunks, vals[k]) != src[rows[k]] {
			miss[k] = true
		}
	}
}

// sameF64 is DOUBLE key identity: == but with NaN equal to NaN.
func sameF64(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// compare orders two stored rows, NULL first (as the reference engines'
// vtypes.Value.Compare does).
func (c *colBuf) compare(a, b int32) int {
	ua, ub := uint32(a), uint32(b)
	if an, bn := c.isNull(ua), c.isNull(ub); an || bn {
		return cmp.Compare(btoi(bn), btoi(an))
	}
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		return cmp.Compare(chunkAt(c.i64, ua), chunkAt(c.i64, ub))
	case vtypes.ClassF64:
		return cmp.Compare(chunkAt(c.f64, ua), chunkAt(c.f64, ub))
	case vtypes.ClassStr:
		return cmp.Compare(chunkAt(c.str, ua), chunkAt(c.str, ub))
	default:
		return cmp.Compare(btoi(chunkAt(c.b, ua)), btoi(chunkAt(c.b, ub)))
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// outVectors returns vecs if it already holds one vector per column of
// schema with at least capacity slots, and fresh vectors otherwise: an
// operator's output vectors, allocated at first use and reused for every
// batch it returns.
func outVectors(vecs []*vector.Vector, schema *vtypes.Schema, capacity int) []*vector.Vector {
	if vecs != nil && (len(vecs) == 0 || vecs[0].Len() >= capacity) {
		return vecs
	}
	return vector.NewBatch(schema, capacity).Vecs
}

package core

import (
	"math"
	"slices"

	"vectorwise/internal/compress"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// colBuf is the columnar buffer the stop-and-go operators (hash join
// build, sort, aggregate keys) retain one column of their input in. Rows
// arrive a batch at a time through append — one typed loop per column,
// never a boxed value per cell — and leave through gather, which fills an
// output vector from a list of row ids. Values live in chunks of one
// vector's rows (primitives.ChunkRows = vector.DefaultSize), so growing the
// buffer never copies what it already holds, and a buffer holds rows plus
// at most one vector of unused slots. The first chunk grows on demand, so
// a 25-row build side pays for about 25 slots; every later one is allocated
// whole. A payload join indexes its stored keys a chunk at a time
// (HashJoin.index). Null indicators are stored the same way, from the
// first vector that carries any.
//
// A VARCHAR buffer that is not a key keeps an FSST arena's rows as their
// codes (codeRows). A key (keyColBuf) is compared as bytes, so it keeps
// every row decoded: decoded into memory of its own by append, or copied
// by appendCopied.
type colBuf struct {
	kind  vtypes.Kind
	key   bool // compared as a key: strings stored decoded
	n     int  // rows stored
	i64   [][]int64
	f64   [][]float64
	str   [][]string
	b     [][]bool
	nulls [][]bool  // nil until a vector with a null indicator arrives
	codes *codeRows // nil until an FSST row is kept as codes
}

// codeRows is how a payload buffer keeps FSST rows: str holds each row's
// codes, copied into memory of the buffer's own, and tab its chunk's
// symbol table, as an index into tables (0 for a row that holds its
// value: a computed string, a PDT row, a plain arena's view). Each chunk
// has its own table, so a row is only ever decoded under the table it was
// coded in. gather decodes the rows it emits, and retain moves each row's
// codes and table together.
type codeRows struct {
	tab    [][]uint16 // row r's table is tables[tab[r]-1]
	tables []*compress.Symbols
	at     []int32             // gather's scratch: output positions of rows kept as codes
	syms   []*compress.Symbols // and their tables
}

const chunkMask = primitives.ChunkRows - 1

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
		bufs[i], shared[i] = keyColBuf(e, payload)
	}
	return bufs, shared
}

// keyColBuf is keyColBufs for one key, whose buffer it marks as a key's.
func keyColBuf(e Expr, payload []*colBuf) (*colBuf, bool) {
	if ref, ok := e.(columnRef); ok && ref.Column() < len(payload) {
		payload[ref.Column()].key = true
		return payload[ref.Column()], true
	}
	return &colBuf{kind: e.Kind(), key: true}, false
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

// fillChunks appends n rows of value x to a chunked column holding
// `have` rows.
func fillChunks[T any](chunks [][]T, have int, x T, n int) [][]T {
	for off := 0; off < n; {
		var dst []T
		chunks, dst = growChunks(chunks, have, n-off)
		for i := range dst {
			dst[i] = x
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
	var tab uint16 // the rows' table, when they are kept as codes
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
		case v.FSST() && !c.key && (c.codes == nil || len(c.codes.tables) < math.MaxUint16):
			tab = c.table(v.Shared.Symbols)
			c.str = appendCompacted(c.str, c.n, sel, n, func(d []string, lo int, sel []int32) {
				vector.CopyRows(d, v.Off[lo:], v.Shared.Bytes, sel)
			})
		case v.Off != nil:
			c.str = appendCompacted(c.str, c.n, sel, n, func(d []string, lo int, sel []int32) {
				vector.CompactArena(d, v.Off[lo:], v.Shared, sel)
			})
		default:
			c.str = appendChunks(c.str, c.n, v.Str, sel, n)
		}
	case vtypes.ClassBool:
		c.b = appendChunks(c.b, c.n, v.B, sel, n)
	}
	if c.codes != nil {
		c.codes.tab = fillChunks(c.codes.tab, c.n, tab, n)
	}
	if v.Nulls != nil {
		if c.nulls == nil {
			c.nulls = fillChunks(make([][]bool, 0, 1), 0, false, c.n) // rows stored before the first indicator arrived
		}
		c.nulls = appendChunks(c.nulls, c.n, v.Nulls, sel, n)
	} else if c.nulls != nil {
		c.nulls = fillChunks(c.nulls, c.n, false, n)
	}
	c.n += n
}

// table returns sym's index in the buffer's tables plus one, adding it
// unless it is the last one added: the rows of a batch share one.
func (c *colBuf) table(sym *compress.Symbols) uint16 {
	if c.codes == nil {
		c.codes = &codeRows{tab: fillChunks([][]uint16(nil), 0, 0, c.n)} // rows stored before the first FSST row hold values
	}
	r := c.codes
	if k := len(r.tables); k == 0 || r.tables[k-1] != sym {
		r.tables = append(r.tables, sym)
	}
	return uint16(len(r.tables))
}

// appendCopied is append for a VARCHAR vector whose strings are views of
// a buffer its owner reuses (vector.FillDecoded): the strings stored are
// copied into memory of the buffer's own.
func (c *colBuf) appendCopied(v *vector.Vector, sel []int32, n int) {
	r := c.n
	c.append(v, sel, n)
	for r < c.n {
		ch, lo := c.str[r>>primitives.ChunkShift], r&chunkMask
		hi := min(len(ch), lo+c.n-r)
		vector.CopyStrs(ch[lo:hi])
		r += hi - lo
	}
}

// chunk points v at the first n rows of the buffer's chunk k, as a plain
// vector of the values stored there. A key buffer stores decoded strings
// and dictionary values, so such a vector hashes as a probe's own vector
// of the same keys does (keyTable.hash).
func (c *colBuf) chunk(v *vector.Vector, k, n int) {
	*v = vector.Vector{Kind: c.kind}
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		v.I64 = c.i64[k][:n]
	case vtypes.ClassF64:
		v.F64 = c.f64[k][:n]
	case vtypes.ClassStr:
		v.Str = c.str[k][:n]
	case vtypes.ClassBool:
		v.B = c.b[k][:n]
	}
	if c.nulls != nil {
		v.Nulls = c.nulls[k][:n]
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
		if c.codes != nil {
			c.codes.decode(dst.Str, pos, idx, n)
		}
	case vtypes.ClassBool:
		primitives.GatherChunks(dst.B, pos, c.b, idx, n)
	}
	if c.nulls != nil || dst.Nulls != nil {
		dst.EnsureNulls()
		primitives.GatherChunksNull(dst.Nulls, pos, c.nulls, idx, n)
	}
}

// decode replaces the codes gather wrote to d, of the rows among idx[0..n)
// kept as codes, with the strings they stand for, each under its table.
func (c *codeRows) decode(d []string, pos, idx []int32, n int) {
	at, syms := c.at[:0], c.syms[:0]
	for k, r := range idx[:n] {
		if r < 0 {
			continue
		}
		if t := chunkAt(c.tab, uint32(r)); t != 0 {
			at, syms = append(at, liveAt(pos, k)), append(syms, c.tables[t-1])
		}
	}
	vector.DecodeStrs(d, at, syms)
	c.at, c.syms = at, syms
}

// retain keeps the stored rows ids (ascending) and drops every other row,
// in place: a bounded sort's way of making room.
func (c *colBuf) retain(ids []int32) {
	c.i64, c.f64 = retainChunks(c.i64, ids), retainChunks(c.f64, ids)
	c.str, c.b = retainChunks(c.str, ids), retainChunks(c.b, ids)
	c.nulls = retainChunks(c.nulls, ids)
	if c.codes != nil {
		c.codes.tab = retainChunks(c.codes.tab, ids)
	}
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

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// outVectors returns an operator's output vectors, one per column of
// schema, with at least n slots, n <= vecSize: vecs itself when it holds
// that many, and otherwise fresh vectors of min(vecSize, max(n, 2×current))
// slots. An operator sizes its output by the rows it emits rather than by
// vecSize, so a statement that moves a few rows allocates a few slots, and
// one whose batches grow regrows at most about log₂(vecSize) times. Rows
// already in vecs are not kept.
func outVectors(vecs []*vector.Vector, schema *vtypes.Schema, n, vecSize int) []*vector.Vector {
	cur := 0
	if vecs != nil {
		if len(vecs) == 0 || vecs[0].Len() >= n {
			return vecs
		}
		cur = vecs[0].Len()
	}
	return vector.NewBatch(schema, min(vecSize, max(n, 2*cur))).Vecs
}

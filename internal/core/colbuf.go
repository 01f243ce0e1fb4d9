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
// first vector that carries any. A VARCHAR chunk is its rows' bytes plus
// offsets, whatever the rows came from (strChunk).
type colBuf struct {
	kind  vtypes.Kind
	key   bool // compared as a key: strings stored decoded
	n     int  // rows stored
	i64   [][]int64
	f64   [][]float64
	str   []strChunk
	b     [][]bool
	nulls [][]bool // nil until a vector with a null indicator arrives
	lent  bool     // a view of str's bytes was handed out (gather, chunk)
}

// strChunk is one chunk of a VARCHAR buffer: row i is b[ends[i-1]:ends[i]]
// (from 0 for row 0). From each run's first row on, rows are FSST codes
// under its table, or bytes as they are under a nil one, as before the
// first run. A key (keyColBuf) is compared as bytes, so its rows are
// decoded and its chunks have no run. Once a view of a buffer's bytes is
// handed out they are never written again: retain and a reset then give
// the rows they keep bytes of their own.
type strChunk struct {
	ends []uint32
	b    []byte
	runs []strRun
}

// strRun is where the rows under one FSST table, or none, begin.
type strRun struct {
	first uint32
	sym   *compress.Symbols
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

// appendChunks appends the live rows of src (dense copy, or compaction
// through sel) to a chunked column holding `have` rows; with codes, the
// rows are codes read through dict.
func appendChunks[T any](chunks [][]T, have int, src []T, codes []uint8, dict []T, sel []int32, n int) [][]T {
	for off := 0; off < n; {
		var dst []T
		chunks, dst = growChunks(chunks, have, n-off)
		lo, s := off, []int32(nil)
		if sel != nil {
			lo, s = 0, sel[off:]
		}
		if codes != nil {
			primitives.CompactCodes(dst, codes[lo:], dict, s, len(dst))
		} else {
			primitives.CompactSel(dst, src[lo:], s, len(dst))
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
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		c.i64 = appendChunks(c.i64, c.n, v.I64, nil, nil, sel, n)
	case vtypes.ClassF64:
		c.f64 = appendChunks(c.f64, c.n, v.F64, v.Codes, v.DictF64(), sel, n)
	case vtypes.ClassStr:
		c.appendStr(v, sel, n)
	case vtypes.ClassBool:
		c.b = appendChunks(c.b, c.n, v.B, nil, nil, sel, n)
	}
	if v.Nulls != nil {
		if c.nulls == nil {
			c.nulls = fillChunks(make([][]bool, 0, 1), 0, false, c.n) // rows stored before the first indicator arrived
		}
		c.nulls = appendChunks(c.nulls, c.n, v.Nulls, nil, nil, sel, n)
	} else if c.nulls != nil {
		c.nulls = fillChunks(c.nulls, c.n, false, n)
	}
	c.n += n
}

// appendStr copies the bytes of the n live rows of the VARCHAR vector v
// into the buffer's chunks, each sized to the rows it gets; an FSST
// arena's rows as codes under a run of their table, or a key's decoded.
func (c *colBuf) appendStr(v *vector.Vector, sel []int32, n int) {
	var dec, sym *compress.Symbols
	if v.FSST() && c.key {
		dec = v.Shared.Symbols
	} else if v.FSST() {
		sym = v.Shared.Symbols
	}
	for off := 0; off < n; {
		have := c.n + off
		fill, k := have&chunkMask, have>>primitives.ChunkShift
		if k == len(c.str) && k < cap(c.str) && c.str[:k+1][k].ends != nil {
			c.str = c.str[:k+1] // a chunk retain emptied
		} else if k == len(c.str) { // the first chunk grows on demand; later ones come whole
			c.str = append(c.str, strChunk{ends: make([]uint32, 0, min(have, primitives.ChunkRows))})
		}
		ch, m := &c.str[k], min(n-off, primitives.ChunkRows-fill)
		if fill+m > cap(ch.ends) { // the first chunk, or one retain made: double it
			ch.ends = slices.Grow(ch.ends, min(max(m, fill), primitives.ChunkRows-fill))
		}
		need := len(ch.b)
		for k := off; k < off+m; k++ {
			if r := v.RowBytes(int(liveAt(sel, k))); dec != nil {
				need += dec.DecodedLen(r)
			} else {
				need += len(r)
			}
		}
		if rest := cap(ch.ends) - fill - m; need > cap(ch.b) { // and the chunk's other slots at the mean row so far
			ch.b = slices.Grow(ch.b, need+need*rest/(fill+m)-len(ch.b))
		}
		for k := off; k < off+m; k++ {
			if r := v.RowBytes(int(liveAt(sel, k))); dec != nil {
				ch.b = dec.Decode(ch.b, r)
			} else {
				ch.b = append(ch.b, r...)
			}
			ch.ends = append(ch.ends, uint32(len(ch.b)))
		}
		ch.mark(uint32(fill), sym)
		off += m
	}
}

// mark opens a run of sym's rows at `first` unless the row before is one.
func (ch *strChunk) mark(first uint32, sym *compress.Symbols) {
	if ch.symAt(first) != sym {
		ch.runs = append(ch.runs, strRun{first, sym})
	}
}

// symAt returns the FSST table row i is coded under (nil: plain bytes).
func (ch *strChunk) symAt(i uint32) *compress.Symbols {
	for k := len(ch.runs) - 1; k >= 0; k-- {
		if ch.runs[k].first <= i {
			return ch.runs[k].sym
		}
	}
	return nil
}

// strRow returns the bytes of VARCHAR row r of chunks and the FSST table
// they are codes under, nil for bytes as they are.
func strRow(chunks []strChunk, r uint32) ([]byte, *compress.Symbols) {
	ch, i, lo := &chunks[r>>primitives.ChunkShift], r&chunkMask, uint32(0)
	if i > 0 {
		lo = ch.ends[i-1]
	}
	return ch.b[lo:ch.ends[i]], ch.symAt(i)
}

// chunk points v at the first n rows of the buffer's chunk k, as a plain
// vector of the values stored there, or an arena over a VARCHAR chunk's
// bytes (with offsets in the ones v held). A key buffer stores decoded
// strings and dictionary values, so such a vector hashes as a probe's own
// vector of the same keys does (keyTable.hash).
func (c *colBuf) chunk(v *vector.Vector, k, n int) {
	off := v.Off[:0]
	*v = vector.Vector{Kind: c.kind}
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		v.I64 = c.i64[k][:n]
	case vtypes.ClassF64:
		v.F64 = c.f64[k][:n]
	case vtypes.ClassStr:
		v.Off, v.Shared = append(append(off, 0), c.str[k].ends[:n]...), &vector.Shared{Bytes: c.str[k].b}
		c.lent = true
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
		c.gatherStr(dst.Str, pos, idx, n)
	case vtypes.ClassBool:
		primitives.GatherChunks(dst.B, pos, c.b, idx, n)
	}
	if c.nulls != nil || dst.Nulls != nil {
		dst.EnsureNulls()
		primitives.GatherChunksNull(dst.Nulls, pos, c.nulls, idx, n)
	}
}

// gatherStr is gather for VARCHAR: views of the rows' bytes, except that
// the rows under an FSST table are decoded, all into one buffer allocated
// for the call and sized to them.
func (c *colBuf) gatherStr(d []string, pos, idx []int32, n int) {
	need := 0
	c.lent = true
	for k, r := range idx[:n] {
		p := liveAt(pos, k)
		if r < 0 {
			d[p] = ""
			continue
		}
		b, sym := strRow(c.str, uint32(r))
		if d[p] = vector.View(b); sym != nil {
			need += sym.DecodedLen(b)
		}
	}
	if need == 0 { // no row has a code to decode: each view is its value
		return
	}
	dec := make([]byte, 0, need+7) // Decode stores 8 bytes a symbol
	for k, r := range idx[:n] {
		if r < 0 {
			continue
		}
		if b, sym := strRow(c.str, uint32(r)); sym != nil {
			lo := len(dec)
			dec = sym.Decode(dec, b)
			d[liveAt(pos, k)] = vector.View(dec[lo:])
		}
	}
}

// retain keeps the stored rows ids (ascending) and drops every other row,
// in place: a bounded sort's way of making room.
func (c *colBuf) retain(ids []int32) {
	c.i64, c.f64 = retainChunks(c.i64, ids), retainChunks(c.f64, ids)
	c.b, c.nulls = retainChunks(c.b, ids), retainChunks(c.nulls, ids)
	if c.str != nil {
		c.retainStr(ids)
	}
	c.n = len(ids)
}

// retainStr is retain for VARCHAR. Kept row k comes from a row at or
// after k, so once chunk j's kept rows are copied no later one reads
// chunk j: its offsets take theirs, and unless lent its bytes too, which
// the rows move down and never overtake. The chunks left over keep their
// offsets and unlent bytes behind the slice's length for appendStr.
func (c *colBuf) retainStr(ids []int32) {
	var ends [primitives.ChunkRows]uint32
	j := 0
	for ; j<<primitives.ChunkShift < len(ids); j++ {
		keep := ids[j<<primitives.ChunkShift : min(len(ids), (j+1)<<primitives.ChunkShift)]
		to := strChunk{b: c.unlent(c.str[j].b)}
		for k, r := range keep {
			b, sym := strRow(c.str, uint32(r))
			to.b = append(to.b, b...)
			ends[k] = uint32(len(to.b))
			to.mark(uint32(k), sym)
		}
		to.ends = append(c.str[j].ends[:0], ends[:len(keep)]...)
		c.str[j] = to
	}
	for k := j; k < len(c.str); k++ {
		c.str[k] = strChunk{ends: c.str[k].ends[:0], runs: c.str[k].runs[:0], b: c.unlent(c.str[k].b)}
	}
	c.str = c.str[:j]
}

// unlent returns b emptied for reuse, or nil if a view of it may be held.
func (c *colBuf) unlent(b []byte) []byte {
	if c.lent {
		return nil
	}
	return b[:0]
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
		b, _ := strRow(c.str, g)
		return string(b) == v.Str[i]
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
		for k := 0; k < n; k++ {
			if b, _ := strRow(c.str, vals[k]); !miss[k] && string(b) != v.Str[rows[k]] {
				miss[k] = true
			}
		}
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

package primitives

// Gather/scatter kernels move data between vector positions through an
// index vector. The stop-and-go operators (hash join build, sort,
// aggregate keys) retain their rows in chunked column buffers and fill
// every output vector through GatherChunks / GatherChunksNull: join
// output, sorted output and group keys are all built on them.

// ChunkRows is the fixed capacity of one chunk of a chunked column
// buffer: one vector's rows (vector.DefaultSize, which this package
// cannot import; core's tests pin the two equal). A buffer grows by adding
// chunks, so rows already stored are never copied again and a buffer
// holds at most one vector of slots it does not use; row r lives at
// chunks[r>>ChunkShift][r&chunkMask].
const (
	ChunkShift = 10
	ChunkRows  = 1 << ChunkShift
	chunkMask  = ChunkRows - 1
)

// GatherChunks writes dst[pos[k]] = row idx[k] of a chunked column for k
// in [0,n); pos == nil means dst[k] (dense output). A negative index —
// an outer join's unmatched row — reads as the zero value, the safe
// value NULL-oblivious kernels expect under a NULL.
func GatherChunks[T any](dst []T, pos []int32, chunks [][]T, idx []int32, n int) {
	var zero T
	if pos == nil {
		for k, ix := range idx[:n] {
			if ix < 0 {
				dst[k] = zero
				continue
			}
			dst[k] = chunks[ix>>ChunkShift][ix&chunkMask]
		}
		return
	}
	for k, ix := range idx[:n] {
		if ix < 0 {
			dst[pos[k]] = zero
			continue
		}
		dst[pos[k]] = chunks[ix>>ChunkShift][ix&chunkMask]
	}
}

// GatherChunksNull is GatherChunks over a column's null indicators: a
// negative index is NULL, and chunks == nil (the column never stored a
// NULL) reads as not NULL everywhere else.
func GatherChunksNull(dst []bool, pos []int32, chunks [][]bool, idx []int32, n int) {
	for k, ix := range idx[:n] {
		null := ix < 0 || chunks != nil && chunks[ix>>ChunkShift][ix&chunkMask]
		if pos == nil {
			dst[k] = null
		} else {
			dst[pos[k]] = null
		}
	}
}

// Gather writes dst[i] = src[idx[i]] for i in [0,n).
func Gather[T any](dst, src []T, idx []uint32, n int) {
	_ = dst[n-1]
	for i := 0; i < n; i++ {
		dst[i] = src[idx[i]]
	}
}

// CompactSel writes dst[k] = src[sel[k]] for k in [0,n): the move from a
// selected batch to a dense one.
func CompactSel[T any](dst, src []T, sel []int32, n int) {
	if sel == nil {
		copy(dst[:n], src[:n])
		return
	}
	for k, i := range sel[:n] {
		dst[k] = src[i]
	}
}

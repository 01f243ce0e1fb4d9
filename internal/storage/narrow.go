package storage

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"vectorwise/internal/compress"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
)

// A BIGINT or DATE chunk decoded from a PFOR, PFOR-DELTA or RLE image is
// cached narrow when its statistics' range fits 16 bits: MinI64 as the
// base and one unsigned offset a row of 1 or 2 bytes (vector.Shared),
// instead of 8 bytes a row; a wider range decodes to int64s (no TPC-H
// chunk and no benchmark table has one). Decode writes the offsets a
// vector's worth of rows at a time through a block on the stack, never a
// full-width copy, and the Scanner is the one reader: it searches and
// checks the offsets in place and widens a batch's rows into int64s of
// its own.

// ErrStatistics reports a BIGINT or DATE chunk holding a value outside
// the MinI64/MaxI64 its metadata records: a fault in the image. Row-group
// refutation and the narrow width both read those statistics, so every
// fetcher checks each chunk it decodes against them.
var ErrStatistics = errors.New("storage: chunk holds values outside its statistics")

// narrowBlock is the number of rows decode narrows at a time.
const narrowBlock = vector.DefaultSize

// statsRange returns the chunk's range MaxI64 − MinI64, computed in
// uint64 so that a chunk holding both ends of int64 cannot overflow it;
// ok is false when the statistics describe no range at all.
func statsRange(cm *ChunkMeta) (rng uint64, ok bool) {
	if cm.MaxI64 < cm.MinI64 {
		return 0, false
	}
	return uint64(cm.MaxI64) - uint64(cm.MinI64), true
}

// narrowWidth returns the bytes of a narrow chunk's offsets under the
// statistics cm: the fewer of 1 and 2 that holds its range, or 0 when
// the chunk has no statistics or a range wider than 16 bits.
func narrowWidth(cm *ChunkMeta) int {
	rng, ok := statsRange(cm)
	switch {
	case !cm.HasStats || !ok:
		return 0
	case rng <= math.MaxUint8:
		return 1
	case rng <= math.MaxUint16:
		return 2
	}
	return 0
}

// decodeNarrow decodes the framed chunk raw into sh as offsets of width
// bytes over base, and returns the largest offset it met (wrapping, as
// primitives.NarrowI64 computes it): the caller's check against the
// chunk's range.
func decodeNarrow(sh *vector.Shared, raw []byte, base int64, width int) (hi uint64, err error) {
	r, err := compress.NewI64Reader(raw)
	if err != nil {
		return 0, err
	}
	sh.Base = base
	if width == 1 {
		sh.U8 = make([]uint8, r.Len())
		return narrowInto(sh.U8, &r, base)
	}
	sh.U16 = make([]uint16, r.Len())
	return narrowInto(sh.U16, &r, base)
}

// narrowInto reads dst's rows from r a block at a time into an array on
// the stack and narrows each block into dst.
func narrowInto[T primitives.Offset](dst []T, r *compress.I64Reader, base int64) (hi uint64, err error) {
	var blk [narrowBlock]int64
	for lo := 0; lo < len(dst); lo += narrowBlock {
		b := blk[:min(narrowBlock, len(dst)-lo)]
		if err := r.Read(b); err != nil {
			return 0, err
		}
		hi = max(hi, primitives.NarrowI64(dst[lo:], b, base))
	}
	return hi, nil
}

// statsErr is ErrStatistics for chunk (g, c). Table.Ordered reads its
// promise from the same statistics, so over an Ordered column the chunk
// breaks that promise too (ErrUnordered).
func (t *Table) statsErr(g, c int) error {
	cm := &t.Meta.Groups[g].Cols[c]
	err := fmt.Errorf("%w: %s group %d col %d has a value outside [%d, %d]", ErrStatistics, t.Meta.Name, g, c, cm.MinI64, cm.MaxI64)
	if t.Ordered(c) {
		err = fmt.Errorf("%w, which its key order rests on: %w", err, ErrUnordered)
	}
	return err
}

// narrowSorted reports whether a narrow chunk's rows never decrease:
// base + offset keeps the offsets' order.
func narrowSorted(sh *vector.Shared) bool {
	if sh.U8 != nil {
		return slices.IsSorted(sh.U8)
	}
	return slices.IsSorted(sh.U16)
}

// widenRows sets dst to the narrow chunk's rows [lo, lo+len(dst)).
func widenRows(dst []int64, sh *vector.Shared, lo int) {
	if sh.U8 != nil {
		primitives.WidenI64(dst, sh.U8[lo:], sh.Base)
		return
	}
	primitives.WidenI64(dst, sh.U16[lo:], sh.Base)
}

// chunkEnds returns a BIGINT or DATE chunk's first and last values, read
// in place when it is narrow; ok is false when it is nil or has no rows.
func chunkEnds(v *vector.Vector) (first, last int64, ok bool) {
	if v == nil {
		return 0, 0, false
	}
	if !v.Narrow() {
		if len(v.I64) == 0 {
			return 0, 0, false
		}
		return v.I64[0], v.I64[len(v.I64)-1], true
	}
	var e [1]int64
	widenRows(e[:], v.Shared, 0)
	first = e[0]
	widenRows(e[:], v.Shared, len(v.Shared.U8)+len(v.Shared.U16)-1)
	return first, e[0], true
}

// searchChunk returns the rows [off, end) of a Sorted BIGINT or DATE
// chunk whose values lie in [lo, hi] (off == end when none does), by two
// binary searches, of a narrow chunk's offsets in place.
func searchChunk(v *vector.Vector, lo, hi int64) (off, end int) {
	if !v.Narrow() {
		off = sort.Search(len(v.I64), func(i int) bool { return v.I64[i] >= lo })
		return off, max(off, sort.Search(len(v.I64), func(i int) bool { return v.I64[i] > hi }))
	}
	if sh := v.Shared; sh.U8 != nil {
		return searchOffsets(sh.U8, sh.Base, lo, hi)
	}
	return searchOffsets(v.Shared.U16, v.Shared.Base, lo, hi)
}

// searchOffsets is searchChunk over ascending offsets from base.
func searchOffsets[T primitives.Offset](offs []T, base, lo, hi int64) (off, end int) {
	off = countBelow(offs, base, lo, false)
	return off, max(off, countBelow(offs, base, hi, true))
}

// countBelow returns how many of the ascending rows base + offs[i] lie
// below x, or at or below it with orEqual: x translated to an offset,
// which a bound below base or above the widest offset settles at once.
func countBelow[T primitives.Offset](offs []T, base, x int64, orEqual bool) int {
	if x < base || x == base && !orEqual {
		return 0
	}
	d := uint64(x) - uint64(base) // exact: x ≥ base
	if d > uint64(^T(0)) {
		return len(offs)
	}
	t := T(d)
	if orEqual {
		return sort.Search(len(offs), func(i int) bool { return offs[i] > t })
	}
	return sort.Search(len(offs), func(i int) bool { return offs[i] >= t })
}

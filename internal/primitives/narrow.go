package primitives

// Frame-of-reference kernels. The buffer pool caches a BIGINT or DATE
// chunk whose range fits 16 bits as its minimum, the base, plus one
// unsigned 1- or 2-byte offset a row (package storage); a scan widens it
// back to int64 a vector at a time, into a buffer that stays in the CPU
// cache. The kernels take 4-byte offsets too.

// Offset is the type of a narrow chunk's offsets.
type Offset interface{ ~uint8 | ~uint16 | ~uint32 }

// NarrowI64 sets dst[i] to vals[i] − base, truncated to T, for i <
// len(vals), and returns the largest untruncated difference. It is
// computed in uint64, wrapping, so a value below base reads as one
// above any 32-bit range: a caller compares the result against the
// chunk's range once per call instead of testing every value.
func NarrowI64[T Offset](dst []T, vals []int64, base int64) (hi uint64) {
	dst = dst[:len(vals)]
	for i, v := range vals {
		d := uint64(v) - uint64(base)
		hi = max(hi, d)
		dst[i] = T(d)
	}
	return hi
}

// WidenI64 sets dst[i] to base + off[i] for i < len(dst), eight at a
// time: unrolled, it runs about twice as fast as one at a time.
func WidenI64[T Offset](dst []int64, off []T, base int64) {
	off = off[:len(dst)]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		o, d := off[i:i+8:i+8], dst[i:i+8:i+8]
		d[0], d[1], d[2], d[3] = base+int64(o[0]), base+int64(o[1]), base+int64(o[2]), base+int64(o[3])
		d[4], d[5], d[6], d[7] = base+int64(o[4]), base+int64(o[5]), base+int64(o[6]), base+int64(o[7])
	}
	for ; i < len(dst); i++ {
		dst[i] = base + int64(off[i])
	}
}

// MaxOffsetI64 returns the largest vals[i] − base, computed as NarrowI64
// does, writing nothing: the same check over a chunk kept at full width.
func MaxOffsetI64(vals []int64, base int64) (hi uint64) {
	for _, v := range vals {
		hi = max(hi, uint64(v)-uint64(base))
	}
	return hi
}

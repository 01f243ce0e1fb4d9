package compress

import (
	"encoding/binary"
	"fmt"
)

// PFOR — patched frame-of-reference.
//
// All values are rebased against the chunk minimum, then bit-packed at a
// width chosen so that "most" values fit; the few that do not (outliers,
// e.g. one huge key in a column of small ones) are stored verbatim in an
// exception list and patched over the packed output after unpacking.
// This is the scheme of paper ref [2]; the exception list keeps the
// packed width small without being hostage to outliers.
//
// Payload layout (after the common frame header):
//
//	base    int64  (little-endian)
//	width   byte   (0..64)
//	nexc    uvarint
//	packed  packedLen(n,width) bytes
//	exceptions: nexc × (position uvarint-delta, value uvarint)
//
// Exception positions are delta-coded since they are ascending.

// encodePFOR appends the PFOR payload for vals to dst.
func encodePFOR(dst []byte, vals []int64) []byte {
	n := len(vals)
	base := vals[0]
	for _, v := range vals {
		if v < base {
			base = v
		}
	}
	deltas := make([]uint64, n)
	for i, v := range vals {
		deltas[i] = uint64(v - base)
	}
	width := choosePFORWidth(deltas)
	mask := widthMask(width)

	var head [9]byte
	binary.LittleEndian.PutUint64(head[0:8], uint64(base))
	head[8] = byte(width)
	dst = append(dst, head[:]...)

	// packBits keeps an exception's low width bits; the list patches the
	// rest.
	var excPos []int
	for i, d := range deltas {
		if d > mask {
			excPos = append(excPos, i)
		}
	}
	dst = appendUvarint(dst, uint64(len(excPos)))
	dst = packBits(dst, deltas, width)
	prev := 0
	for _, p := range excPos {
		dst = appendUvarint(dst, uint64(p-prev))
		prev = p
		dst = appendUvarint(dst, deltas[p])
	}
	return dst
}

// pforPayload is a parsed PFOR payload: base plus the width-bit fields of
// packed, then patched by the nexc exceptions listed in exc.
type pforPayload struct {
	base   int64
	width  uint
	nexc   uint64
	packed []byte
	exc    []byte
}

// parsePFOR checks a PFOR payload of n values and splits it into its parts.
func parsePFOR(src []byte, n int) (pforPayload, error) {
	if len(src) < 9 {
		return pforPayload{}, fmt.Errorf("compress: truncated PFOR header")
	}
	p := pforPayload{base: int64(binary.LittleEndian.Uint64(src[0:8])), width: uint(src[8])}
	if p.width > 64 {
		return pforPayload{}, fmt.Errorf("compress: invalid PFOR width %d", p.width)
	}
	src = src[9:]
	var k int
	if p.nexc, k = binary.Uvarint(src); k <= 0 {
		return pforPayload{}, fmt.Errorf("compress: truncated PFOR exception count")
	}
	src = src[k:]
	plen := packedLen(n, p.width)
	if len(src) < plen {
		return pforPayload{}, fmt.Errorf("compress: truncated PFOR payload")
	}
	p.packed, p.exc = src[:plen], src[plen:]
	return p, nil
}

// excCursor walks a PFOR payload's exceptions in ascending position
// order: pos is the current one's and val its rebased value, and pos is n
// once none is left. Each position is a delta from the one before it,
// the first from 0.
type excCursor struct {
	src  []byte
	left uint64
	n    int
	pos  int
	val  int64
	base int64
}

// exceptions returns a cursor at the first exception of a parsed PFOR
// payload of n values.
func (p *pforPayload) exceptions(n int) (excCursor, error) {
	c := excCursor{src: p.exc, left: p.nexc, n: n, base: p.base}
	err := c.next()
	return c, err
}

// next moves the cursor to the following exception, or to n past the
// last.
func (c *excCursor) next() error {
	if c.left == 0 {
		c.pos = c.n
		return nil
	}
	dp, k1 := binary.Uvarint(c.src)
	if k1 <= 0 {
		return fmt.Errorf("compress: truncated PFOR exception")
	}
	c.src = c.src[k1:]
	v, k2 := binary.Uvarint(c.src)
	if k2 <= 0 {
		return fmt.Errorf("compress: truncated PFOR exception value")
	}
	c.src = c.src[k2:]
	if dp >= uint64(c.n-c.pos) {
		return fmt.Errorf("compress: PFOR exception position %d out of range", uint64(c.pos)+dp)
	}
	c.pos, c.val = c.pos+int(dp), c.base+int64(v)
	c.left--
	return nil
}

// patch calls set with each exception's position and rebased value, in
// ascending position order, stopping at the first error.
func (p *pforPayload) patch(n int, set func(pos int, v int64) error) error {
	c, err := p.exceptions(n)
	for ; err == nil && c.pos < n; err = c.next() {
		if err := set(c.pos, c.val); err != nil {
			return err
		}
	}
	return err
}

// choosePFORWidth picks the packed width minimizing estimated size:
// packed bits plus ~10 bytes per exception.
func choosePFORWidth(deltas []uint64) uint {
	n := len(deltas)
	// Histogram of required widths.
	var hist [65]int
	maxw := uint(0)
	for _, d := range deltas {
		b := bitsNeeded(d)
		hist[b]++
		if b > maxw {
			maxw = b
		}
	}
	best := maxw
	bestSize := packedLen(n, maxw)
	exceptions := 0
	for w := int(maxw) - 1; w >= 0; w-- {
		exceptions += hist[w+1]
		size := packedLen(n, uint(w)) + exceptions*10
		if size < bestSize {
			bestSize = size
			best = uint(w)
		}
	}
	return best
}

// PFOR-DELTA: consecutive differences (zigzag for sign) are themselves
// PFOR-coded. Ideal for sorted or clustered columns such as primary keys
// and dates laid down in load order — exactly the columns the paper's
// storage targets.

// encodePFORDelta appends the PFOR-DELTA payload for vals.
func encodePFORDelta(dst []byte, vals []int64) []byte {
	n := len(vals)
	deltas := make([]int64, n)
	prev := int64(0)
	for i, v := range vals {
		deltas[i] = int64(zigzag(v - prev))
		prev = v
	}
	return encodePFOR(dst, deltas)
}

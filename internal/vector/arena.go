package vector

import (
	"encoding/binary"
	"unsafe"
)

// This file is the one place outside bench/ that imports unsafe (CI
// checks): it makes the views an arena vector's rows are read as, and
// the views a plain BIGINT or DOUBLE chunk decodes to. A view is a string
// or a slice over bytes it does not own, so it costs no allocation and no
// copy. It is sound because those bytes are a published table image's
// payload, which nothing writes again (storage.Table), and it keeps that
// whole image alive for as long as it is held.

// view returns b[lo:hi] as a string sharing b's memory.
func view(b []byte, lo, hi uint32) string {
	if lo == hi {
		return "" // also when lo == len(b), where &b[lo] is out of range
	}
	s := b[lo:hi]
	return unsafe.String(&s[0], len(s))
}

// littleEndian reports whether the host stores an integer's low byte
// first, as a plain chunk does.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// FixedView returns b, little-endian 8-byte values, as a []T sharing b's
// memory with cap == len, so an append to it copies instead of writing
// past it. It returns nil when b holds no value, its first byte is not
// 8-aligned, or the host is big-endian: then b must be decoded instead.
func FixedView[T int64 | float64](b []byte) []T {
	n := len(b) / 8
	if n == 0 || !littleEndian || uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// CompactArena sets d[k] to row sel[k] of the arena (off, b), or to row k
// when sel is nil, as a view: primitives.CompactCodes for an arena.
func CompactArena(d []string, off []uint32, b []byte, sel []int32) {
	if sel == nil {
		off = off[:len(d)+1]
		for i := range d {
			d[i] = view(b, off[i], off[i+1])
		}
		return
	}
	for k, i := range sel[:len(d)] {
		d[k] = view(b, off[i], off[i+1])
	}
}

// fillArena sets d[i] to row i of the arena (off, b), as a view, for the
// live rows sel[:n] (rows [0, n) when sel is nil).
func fillArena(d []string, off []uint32, b []byte, sel []int32, n int) {
	if sel == nil {
		CompactArena(d[:n], off, b, nil)
		return
	}
	for _, i := range sel[:n] {
		d[i] = view(b, off[i], off[i+1])
	}
}

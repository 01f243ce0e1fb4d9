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
// whole image alive for as long as it is held. A row of an FSST arena is
// a view of its decoded bytes, in a buffer allocated for the one read that
// decodes it and never written again: a reader may keep the string past
// the batch (core's colBuf does), so the buffer is never reused.

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

// CompactArena sets d[k] to row sel[k] of the arena (off, sh), or to row
// k when sel is nil, as a view: primitives.CompactCodes for an arena.
func CompactArena(d []string, off []uint32, sh *Shared, sel []int32) {
	if sh.Symbols != nil {
		decodeRows(off, sh, sel, len(d), func(k, _ int, s string) { d[k] = s })
		return
	}
	b := sh.Bytes
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

// fillArena sets d[i] to row i of the arena (off, sh), as a view, for the
// live rows sel[:n] (rows [0, n) when sel is nil).
func fillArena(d []string, off []uint32, sh *Shared, sel []int32, n int) {
	switch {
	case sel == nil:
		CompactArena(d[:n], off, sh, nil)
	case sh.Symbols != nil:
		decodeRows(off, sh, sel, n, func(_, i int, s string) { d[i] = s })
	default:
		for _, i := range sel[:n] {
			d[i] = view(sh.Bytes, off[i], off[i+1])
		}
	}
}

// decodeRows decodes the rows sel[:n] of an FSST arena (rows [0, n) when
// sel is nil) into one buffer allocated for the call and sized to them,
// and passes put each one's position k in sel, its row i and a view of
// its decoded bytes.
func decodeRows(off []uint32, sh *Shared, sel []int32, n int, put func(k, i int, s string)) {
	sym, codes := sh.Symbols, sh.Bytes
	row := func(k int) int {
		if sel == nil {
			return k
		}
		return int(sel[k])
	}
	need := 0
	for k := range n {
		i := row(k)
		need += sym.DecodedLen(codes[off[i]:off[i+1]])
	}
	buf := make([]byte, 0, need+7) // Decode stores 8 bytes a symbol
	for k := range n {
		i, lo := row(k), len(buf)
		buf = sym.Decode(buf, codes[off[i]:off[i+1]])
		put(k, i, view(buf, uint32(lo), uint32(len(buf))))
	}
}

// arenaRow returns row i of the arena (off, sh) as a view: of its bytes,
// or of an FSST row decoded into a buffer of its own.
func arenaRow(off []uint32, sh *Shared, i int) string {
	codes := sh.Bytes[off[i]:off[i+1]]
	if sym := sh.Symbols; sym != nil {
		b := sym.Decode(make([]byte, 0, sym.DecodedLen(codes)+7), codes)
		return view(b, 0, uint32(len(b)))
	}
	return view(codes, 0, uint32(len(codes)))
}

package vector

import (
	"encoding/binary"
	"unsafe"

	"vectorwise/internal/compress"
)

// This file is the one place outside bench/ that imports unsafe (CI
// checks): it makes views, strings or slices over bytes they do not own,
// which cost no allocation and no copy, under the package doc's rule: of
// bytes nothing writes again while the view is held.

// View returns b as a string sharing its memory. The caller vouches that
// nothing writes b again while the string is held.
func View(b []byte) string {
	if len(b) == 0 {
		return "" // also at the end of an array, where &b[0] is out of range
	}
	return unsafe.String(&b[0], len(b))
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
// k when sel is nil: a view of its bytes, or of an FSST row decoded into
// one buffer allocated for the call. It is primitives.CompactCodes for an
// arena.
func CompactArena(d []string, off []uint32, sh *Shared, sel []int32) {
	viewRows(d, off, sh.Bytes, sel)
	if sh.Symbols != nil {
		decodeInto(nil, d, nil, sh.Symbols)
	}
}

// fillArena sets d[i] to row i of the arena (off, sh) for the live rows
// sel[:n] (rows [0, n) when sel is nil), as CompactArena does, but an FSST
// row decoded into dec (decodeInto), which it returns.
func fillArena(dec []byte, d []string, off []uint32, sh *Shared, sel []int32, n int) []byte {
	if sel == nil {
		d = d[:n]
		viewRows(d, off, sh.Bytes, nil)
	} else {
		sel = sel[:n]
		for _, i := range sel {
			d[i] = View(sh.Bytes[off[i]:off[i+1]])
		}
	}
	if sh.Symbols != nil {
		dec = decodeInto(dec, d, sel, sh.Symbols)
	}
	return dec
}

// decodeInto replaces d[at[j]] (d[j] when at is nil), the codes of an FSST
// row under sym, with a view of the string they stand for, decoded into
// dec, which it returns: into dec itself when it holds them all, and
// otherwise into a buffer it allocates, sized to them when dec is nil.
func decodeInto(dec []byte, d []string, at []int32, sym *compress.Symbols) []byte {
	row := func(j int) int {
		if at != nil {
			return int(at[j])
		}
		return j
	}
	rows, need := len(d), 0
	if at != nil {
		rows = len(at)
	}
	for j := range rows {
		need += sym.DecodedLen(bytesOf(d[row(j)]))
	}
	if need == 0 { // no row has a code, so each is "" already
		return dec
	}
	need += 7 // Decode stores 8 bytes a symbol
	if cap(dec) < need {
		dec = make([]byte, 0, max(need, 2*cap(dec)))
	}
	dec = dec[:0]
	for j := range rows {
		i, lo := row(j), len(dec)
		dec = sym.Decode(dec, bytesOf(d[i]))
		d[i] = View(dec[lo:])
	}
	return dec
}

// viewRows sets d[k] to row sel[k] of the arena (off, b), or to row k
// when sel is nil, as a view of b.
func viewRows(d []string, off []uint32, b []byte, sel []int32) {
	if sel == nil {
		off = off[:len(d)+1]
		for i := range d {
			d[i] = View(b[off[i]:off[i+1]])
		}
		return
	}
	for k, i := range sel[:len(d)] {
		d[k] = View(b[off[i]:off[i+1]])
	}
}

// bytesOf returns the bytes of s, for a caller that only reads them.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// RowBytes returns the bytes row i of a VARCHAR vector is stored as, for
// a caller that copies them and never writes them: a string of Str, a
// dictionary entry, or an arena row, an FSST arena's row as its codes.
func (v *Vector) RowBytes(i int) []byte {
	switch {
	case v.Codes != nil:
		return bytesOf(v.Shared.Dict[v.Codes[i]])
	case v.Off != nil:
		return v.Shared.Bytes[v.Off[i]:v.Off[i+1]]
	}
	return bytesOf(v.Str[i])
}

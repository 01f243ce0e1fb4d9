package vector

import "unsafe"

// This file is the one place outside bench/ that imports unsafe (CI
// checks): it makes the views an arena vector's rows are read as. A view
// is a string over bytes it does not own, so it costs no allocation and
// no copy. It is sound because an arena's Bytes are a published table
// image's payload, which nothing writes again (storage.Table), and it
// keeps that whole image alive for as long as it is held.

// view returns b[lo:hi] as a string sharing b's memory.
func view(b []byte, lo, hi uint32) string {
	if lo == hi {
		return "" // also when lo == len(b), where &b[lo] is out of range
	}
	s := b[lo:hi]
	return unsafe.String(&s[0], len(s))
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

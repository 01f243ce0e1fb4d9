package vector

import (
	"encoding/binary"
	"unsafe"

	"vectorwise/internal/compress"
)

// This file is the one place outside bench/ that imports unsafe (CI
// checks): it makes the views an arena vector's rows are read as, and
// the views a plain BIGINT or DOUBLE chunk decodes to. A view is a string
// or a slice over bytes it does not own, so it costs no allocation and no
// copy. It is sound because those bytes are a published table image's
// payload, which nothing writes again (storage.Table), and it keeps that
// whole image alive for as long as it is held. An FSST arena's bytes are
// not always an image's: GatherFrom copies codes into bytes a vector
// reuses. So no view of an FSST arena's bytes is made here: its rows are
// decoded, or copied (CopyRows), into a buffer allocated for the call,
// which nothing writes again, and a reader may keep them past the batch
// (core's colBuf does). FillDecoded, the one exception, decodes into a
// buffer its caller reuses, and its caller copies what it keeps.

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
// k when sel is nil: a view of its bytes, or of an FSST row decoded into
// one buffer allocated for the call. It is primitives.CompactCodes for an
// arena.
func CompactArena(d []string, off []uint32, sh *Shared, sel []int32) {
	viewRows(d, off, sh.Bytes, sel)
	if sh.Symbols != nil {
		decodeInto(nil, d, nil, sh.Symbols, nil)
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
			d[i] = view(sh.Bytes, off[i], off[i+1])
		}
	}
	if sh.Symbols != nil {
		dec = decodeInto(dec, d, sel, sh.Symbols, nil)
	}
	return dec
}

// CopyRows sets d[k] to the bytes of row sel[k] of the arena (off, b), or
// of row k when sel is nil, as they are (an FSST arena's codes), copied
// into one buffer allocated for the call: strings that outlive b.
func CopyRows(d []string, off []uint32, b []byte, sel []int32) {
	viewRows(d, off, b, sel)
	CopyStrs(d)
}

// CopyStrs replaces each string of d with a copy of it, all in one buffer
// allocated for the call.
func CopyStrs(d []string) {
	n := 0
	for _, s := range d {
		n += len(s)
	}
	if n == 0 {
		return
	}
	buf := make([]byte, 0, n)
	for k, s := range d {
		lo := len(buf)
		buf = append(buf, s...)
		d[k] = view(buf, uint32(lo), uint32(len(buf)))
	}
}

// DecodeStrs replaces d[at[j]], the codes of an FSST row under the symbol
// table syms[j], with the string they stand for, for every j: all decoded
// into one buffer allocated for the call and sized to them.
func DecodeStrs(d []string, at []int32, syms []*compress.Symbols) {
	if len(at) > 0 {
		decodeInto(nil, d, at, nil, syms)
	}
}

// decodeInto replaces d[at[j]] (d[j] when at is nil), the codes of an FSST
// row under syms[j] (sym when syms is nil), with a view of the string they
// stand for, decoded into dec, which it returns: into dec itself when it
// holds them all, and otherwise into a buffer it allocates, sized to
// them when dec is nil.
func decodeInto(dec []byte, d []string, at []int32, sym *compress.Symbols, syms []*compress.Symbols) []byte {
	rows := len(d)
	if at != nil {
		rows = len(at)
	}
	row := func(j int) (int, *compress.Symbols) {
		i := j
		if at != nil {
			i = int(at[j])
		}
		if syms != nil {
			return i, syms[j]
		}
		return i, sym
	}
	need := 0
	for j := range rows {
		i, t := row(j)
		need += t.DecodedLen(bytesOf(d[i]))
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
		i, t := row(j)
		lo := len(dec)
		dec = t.Decode(dec, bytesOf(d[i]))
		d[i] = view(dec, uint32(lo), uint32(len(dec)))
	}
	return dec
}

// viewRows sets d[k] to row sel[k] of the arena (off, b), or to row k
// when sel is nil, as a view of b.
func viewRows(d []string, off []uint32, b []byte, sel []int32) {
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

// bytesOf returns the bytes of s, for a caller that only reads them.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// arenaRow returns row i of the arena (off, sh): a view of its bytes, or
// of an FSST row decoded into a buffer of its own.
func arenaRow(off []uint32, sh *Shared, i int) string {
	d := []string{view(sh.Bytes, off[i], off[i+1])}
	if sh.Symbols != nil {
		decodeInto(nil, d, nil, sh.Symbols, nil)
	}
	return d[0]
}

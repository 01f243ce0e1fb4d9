package primitives

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// SortKey* kernels pack ORDER BY keys into sort entries: an entry is a
// run of stride uint64 words read as one big-endian bit string, most
// significant bit of its first word first, so comparing two entries word
// by word compares their fields in order, and a sort never looks at a
// type again. Entry k of dst is written from src[k].
//
// A fixed-width key is stored frame-of-reference, as the paper's PFOR
// stores a column: one pass finds the range [lo, hi] of its codes, and
// the field holds code − lo (hi − code under DESC) in only the
// bits.Len64(hi − lo) bits that range needs — none for a constant key.
// A code is the key's value mapped to a uint64 of the same order:
//
//	I64, DATE  the sign bit flipped
//	F64        IEEE bits, negatives inverted, others sign-flipped;
//	           -0 is +0 and every NaN the one lowest code (cmp.Compare)
//	BOOL       0 or 1, in one bit
//	VARCHAR    the first SortKeyStrPrefix bytes, zero-padded, as 96 bits:
//	           order-preserving but not injective, so entries equal on it
//	           are still unordered
//
// Every code but a DOUBLE -0's or NaN's decodes to its value again
// (SortKeyRead*): a key the range pass saw neither in can be read back
// out of sorted entries instead of gathered.
//
// Every kernel changes only the bits of its own field.

// SortKeyStrPrefix is the number of leading string bytes a key keeps.
const SortKeyStrPrefix = 12

// SortKeyStrBits is the width of a VARCHAR key's field.
const SortKeyStrBits = 8 * SortKeyStrPrefix

const signBit = 1 << 63

// descMask is XORed into every code: all ones reverses the order.
func descMask(desc bool) uint64 {
	if desc {
		return math.MaxUint64
	}
	return 0
}

// SortField is one field of a packed entry: Width bits (0 to 64) from
// bit Off of the entry, holding (code ^ mask) − Base with mask all ones
// under Desc — code − lo ascending, hi − code descending. (16 bytes: a
// sort keeps one per key.)
type SortField struct {
	Base  uint64
	Off   int32
	Width uint8
	Desc  bool
}

// NewSortField lays out a field at off for the codes [lo, hi].
func NewSortField(off int, lo, hi uint64, desc bool) SortField {
	f := SortField{Off: int32(off), Width: uint8(bits.Len64(hi - lo)), Base: lo, Desc: desc}
	if desc {
		f.Base = ^hi
	}
	return f
}

// slot is where a field's bits sit in its entry. A field within one
// word is v<<sh under the mask hi there; one that crosses into the next
// word is v>>sh under hi and v<<(64-sh) under lo there. (Four fields, so
// the compiler keeps a slot in registers.)
type slot struct {
	word   int
	sh     uint
	hi, lo uint64
}

func (f SortField) slot() slot {
	s, b := uint(f.Off&63), uint(f.Width)
	if b == 0 {
		return slot{} // no bits: word 0, which every entry has, masked off
	}
	p := slot{word: int(f.Off >> 6)}
	ones := uint64(math.MaxUint64) >> (64 - b)
	if s+b <= 64 {
		p.sh = 64 - s - b
		p.hi = ones << p.sh
	} else {
		p.sh = s + b - 64
		p.hi, p.lo = ones>>p.sh, ones<<(128-s-b)
	}
	return p
}

// put stores v, which holds no bit past the field's width, in entry e.
func (p slot) put(e []uint64, v uint64) {
	if p.lo == 0 {
		e[p.word] = e[p.word]&^p.hi | v<<(p.sh&63)&p.hi
		return
	}
	e[p.word] = e[p.word]&^p.hi | v>>(p.sh&63)&p.hi
	e[p.word+1] = e[p.word+1]&^p.lo | v<<((64-p.sh)&63)
}

// read returns the field's bits in entry e.
func (p slot) read(e []uint64) uint64 {
	if p.lo == 0 {
		return e[p.word] & p.hi >> (p.sh & 63)
	}
	return e[p.word]&p.hi<<(p.sh&63) | e[p.word+1]>>((64-p.sh)&63)
}

// RangeI64 widens the code range [lo, hi] to the codes of src. Start
// from lo = MaxUint64, hi = 0.
func RangeI64(src []int64, lo, hi uint64) (uint64, uint64) {
	for _, v := range src {
		c := uint64(v) ^ signBit
		lo, hi = min(lo, c), max(hi, c)
	}
	return lo, hi
}

// RangeF64 is RangeI64 for DOUBLE keys; exact turns false at a -0 or a
// NaN, whose codes do not decode to them.
func RangeF64(src []float64, lo, hi uint64, exact bool) (uint64, uint64, bool) {
	for _, v := range src {
		c := f64Code(v)
		lo, hi = min(lo, c), max(hi, c)
		if v != v || math.Float64bits(v) == signBit {
			exact = false
		}
	}
	return lo, hi, exact
}

// f64Code maps a float to a uint64 ordered as cmp.Compare orders floats.
func f64Code(v float64) uint64 {
	if v != v {
		return 0 // below -Inf, whose code is 0x000f_ffff_ffff_ffff
	}
	if v == 0 {
		v = 0 // -0 == +0 must encode alike
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | signBit)
}

// SortKeyI64 packs BIGINT and DATE keys.
func SortKeyI64(dst []uint64, stride int, f SortField, src []int64) {
	p, mask := f.slot(), descMask(f.Desc)
	for k, v := range src {
		p.put(dst[k*stride:], (uint64(v)^signBit^mask)-f.Base)
	}
}

// SortKeyF64 packs DOUBLE keys.
func SortKeyF64(dst []uint64, stride int, f SortField, src []float64) {
	p, mask := f.slot(), descMask(f.Desc)
	for k, v := range src {
		p.put(dst[k*stride:], (f64Code(v)^mask)-f.Base)
	}
}

// SortKeyBool packs BOOLEAN keys, false first, into a field of codes
// [0, 1].
func SortKeyBool(dst []uint64, stride int, f SortField, src []bool) {
	p, mask := f.slot(), descMask(f.Desc)
	for k, v := range src {
		var c uint64
		if v {
			c = 1
		}
		p.put(dst[k*stride:], (c^mask)-f.Base)
	}
}

// SortKeyStr packs the first SortKeyStrPrefix bytes of VARCHAR keys into
// the SortKeyStrBits bits from off: one a row of len(ends) rows, row k
// being src[ends[k-1]:ends[k]] (from 0 for row 0).
func SortKeyStr(dst []uint64, stride, off int, ends []uint32, src []byte, desc bool) {
	// Prefix bytes 0-7, then 8-11.
	hi, lo := NewSortField(off, 0, math.MaxUint64, desc), NewSortField(off+64, 0, math.MaxUint32, desc)
	ph, pl, mask := hi.slot(), lo.slot(), descMask(desc)
	start := uint32(0)
	for k, end := range ends {
		var b [SortKeyStrPrefix]byte
		copy(b[:], src[start:end])
		start = end
		e := dst[k*stride:]
		ph.put(e, (binary.BigEndian.Uint64(b[:8])^mask)-hi.Base)
		pl.put(e, (uint64(binary.BigEndian.Uint32(b[8:]))^mask)-lo.Base)
	}
}

// SortKeyNulls packs a nullable key's indicator, the one-bit field f of
// codes [0, 1] just before its value — 0 for NULL, 1 otherwise, so NULL
// sorts first ascending — and zeroes the width value bits after it under
// a NULL, whose stored safe value must not order NULLs among themselves.
// It runs after the value kernel of the same key.
func SortKeyNulls(dst []uint64, stride int, f SortField, width int, nulls []bool) {
	p, mask := f.slot(), descMask(f.Desc)
	// width <= SortKeyStrBits: the value is at most two fields of <= 64 bits.
	v1 := SortField{Off: f.Off + 1, Width: uint8(min(64, width))}.slot()
	v2 := SortField{Off: f.Off + 65, Width: uint8(max(0, width-64))}.slot()
	for k, null := range nulls {
		e := dst[k*stride:]
		if !null {
			p.put(e, (1^mask)-f.Base)
			continue
		}
		p.put(e, mask-f.Base)
		v1.put(e, 0)
		v2.put(e, 0)
	}
}

// SortKeyRowID packs the tie-breaker into n consecutive entries: row ids
// first, first+1, ... in the ascending field f, so rows equal on every
// key keep their input order.
func SortKeyRowID(dst []uint64, stride int, f SortField, first uint32, n int) {
	p := f.slot()
	for k := range n {
		p.put(dst[k*stride:], uint64(first+uint32(k))-f.Base)
	}
}

// SortKeyRowIDs packs row id ids[k] into entry k.
func SortKeyRowIDs(dst []uint64, stride int, f SortField, ids []int32) {
	p := f.slot()
	for k, id := range ids {
		p.put(dst[k*stride:], uint64(id)-f.Base)
	}
}

// SortKeyReadI64 reads BIGINT and DATE keys back out of len(dst)
// entries.
func SortKeyReadI64(dst []int64, src []uint64, stride int, f SortField) {
	p, mask := f.slot(), descMask(f.Desc)
	for k := range dst {
		dst[k] = int64((p.read(src[k*stride:]) + f.Base) ^ mask ^ signBit)
	}
}

// SortKeyReadF64 reads DOUBLE keys back: exactly, unless a value was -0
// (read as +0) or NaN.
func SortKeyReadF64(dst []float64, src []uint64, stride int, f SortField) {
	p, mask := f.slot(), descMask(f.Desc)
	for k := range dst {
		c := (p.read(src[k*stride:]) + f.Base) ^ mask
		dst[k] = math.Float64frombits(c ^ (uint64(int64(^c)>>63) | signBit))
	}
}

// SortKeyReadBool reads BOOLEAN keys back.
func SortKeyReadBool(dst []bool, src []uint64, stride int, f SortField) {
	p, mask := f.slot(), descMask(f.Desc)
	for k := range dst {
		dst[k] = (p.read(src[k*stride:])+f.Base)^mask != 0
	}
}

// SortKeyReadRowIDs reads the row ids of len(dst) entries.
func SortKeyReadRowIDs(dst []int32, src []uint64, stride int, f SortField) {
	p := f.slot()
	for k := range dst {
		dst[k] = int32(p.read(src[k*stride:]) + f.Base)
	}
}

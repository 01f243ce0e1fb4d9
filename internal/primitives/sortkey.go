package primitives

import (
	"encoding/binary"
	"math"
)

// SortKey* kernels normalize one ORDER BY key column into byte-comparable
// form: bytes.Compare of two encoded keys has the sign of comparing the
// values, so a sort never looks at a type again. Live row k of src (row
// sel[k], or k when sel is nil) is written into entry k of dst, a flat
// array of stride-byte entries, at byte offset off within the entry. desc
// inverts every byte the kernel writes, which reverses the order.
//
//	I64, DATE  8 bytes  sign bit flipped, big-endian
//	F64        8 bytes  IEEE bits, negatives inverted, others sign-flipped;
//	                    -0 is +0 and every NaN the one lowest code (cmp.Compare)
//	BOOL       1 byte   0 or 1
//	VARCHAR    SortKeyStrPrefix bytes, zero-padded: order-preserving but
//	           not injective, so entries equal on it are still unordered
//
// SortKeyNulls writes the byte that precedes a nullable key's value.

// SortKeyStrPrefix is the number of leading string bytes a key keeps.
const SortKeyStrPrefix = 12

const signBit = 1 << 63

// descMask is XORed into every code: all ones reverses the byte order.
func descMask(desc bool) uint64 {
	if desc {
		return math.MaxUint64
	}
	return 0
}

// SortKeyI64 encodes BIGINT and DATE keys.
func SortKeyI64(dst []byte, stride, off int, src []int64, sel []int32, n int, desc bool) {
	flip := signBit ^ descMask(desc)
	if sel == nil {
		for k, v := range src[:n] {
			binary.BigEndian.PutUint64(dst[k*stride+off:], uint64(v)^flip)
		}
		return
	}
	for k, i := range sel[:n] {
		binary.BigEndian.PutUint64(dst[k*stride+off:], uint64(src[i])^flip)
	}
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

// SortKeyF64 encodes DOUBLE keys.
func SortKeyF64(dst []byte, stride, off int, src []float64, sel []int32, n int, desc bool) {
	mask := descMask(desc)
	if sel == nil {
		for k, v := range src[:n] {
			binary.BigEndian.PutUint64(dst[k*stride+off:], f64Code(v)^mask)
		}
		return
	}
	for k, i := range sel[:n] {
		binary.BigEndian.PutUint64(dst[k*stride+off:], f64Code(src[i])^mask)
	}
}

// SortKeyBool encodes BOOLEAN keys, false first.
func SortKeyBool(dst []byte, stride, off int, src []bool, sel []int32, n int, desc bool) {
	mask := byte(descMask(desc))
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		var code byte
		if src[i] {
			code = 1
		}
		dst[k*stride+off] = code ^ mask
	}
}

// SortKeyStr encodes the first SortKeyStrPrefix bytes of VARCHAR keys.
func SortKeyStr(dst []byte, stride, off int, src []string, sel []int32, n int, desc bool) {
	mask := byte(descMask(desc))
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		p := dst[k*stride+off:][:SortKeyStrPrefix]
		clear(p[copy(p, src[i]):])
		if desc {
			for j := range p {
				p[j] ^= mask
			}
		}
	}
}

// SortKeyNulls writes a nullable key's indicator byte at off — 0 for
// NULL, 1 otherwise, so NULL sorts first ascending — and overwrites the
// width value bytes after it with zeros under a NULL, whose stored safe
// value must not order NULLs among themselves. It runs after the value
// kernel of the same key.
func SortKeyNulls(dst []byte, stride, off, width int, nulls []bool, sel []int32, n int, desc bool) {
	mask := byte(descMask(desc))
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		p := dst[k*stride+off:][:1+width]
		if !nulls[i] {
			p[0] = 1 ^ mask
			continue
		}
		for j := range p {
			p[j] = mask
		}
	}
}

// SortKeyRowID appends the tie-breaker to n consecutive entries: row ids
// first, first+1, ... big-endian at off, never inverted, so rows equal on
// every key keep their input order.
func SortKeyRowID(dst []byte, stride, off int, first uint32, n int) {
	for k := 0; k < n; k++ {
		binary.BigEndian.PutUint32(dst[k*stride+off:], first+uint32(k))
	}
}

package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PDICT — dictionary coding, of strings and of DOUBLEs. The distinct
// values (in first-occurrence order) form the dictionary, of at most
// MaxCodeDict entries; the column becomes a vector of integer codes,
// themselves PFOR-coded. Low-cardinality columns (flags, status words,
// nation names, quantities, discounts) shrink by an order of magnitude.
// A chunk decodes to its one-byte codes and its dictionary, with no value
// per row (DecompressStrCodes, DecompressF64Codes), so that operators run
// on the codes and read a row's value through the dictionary: the
// Vectorwise storage layer's processing on compressed data. A chunk of
// more distinct values is not dictionary-coded (EncodeStr, EncodeF64), and
// a dictionary of more entries is refused when read.
//
// Payload layout:
//
//	ndict  uvarint
//	ndict entries: a string as (len uvarint, bytes); a DOUBLE as its
//	               8-byte little-endian bit pattern
//	PFOR payload of the n codes
//
// A DOUBLE dictionary holds bit patterns, not values, so −0 and +0 and
// each NaN payload are entries of their own and decode exactly.

// MaxCodeDict is the largest dictionary whose codes fit one byte: the most
// entries a dictionary holds.
const MaxCodeDict = 256

// dictBlock is how many codes decodeDict unpacks at a time, into an array
// on its stack rather than an n-row temporary.
const dictBlock = 256

// encodeDict appends the PDICT payload for vals, or returns nil when
// they hold no value or more than MaxCodeDict distinct ones.
func encodeDict(dst []byte, vals []string) []byte {
	if len(vals) == 0 {
		return nil
	}
	idx := make(map[string]int64, 64)
	codes := make([]int64, len(vals))
	var dict []string
	for i, s := range vals {
		c, found := idx[s]
		if !found {
			if len(dict) == MaxCodeDict {
				return nil
			}
			c = int64(len(dict))
			dict = append(dict, s)
			idx[s] = c
		}
		codes[i] = c
	}
	dst = appendUvarint(dst, uint64(len(dict)))
	for _, s := range dict {
		dst = appendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return encodePFOR(dst, codes)
}

// bitsTable numbers the distinct float64 bit patterns of a chunk in
// first-occurrence order, at most MaxCodeDict of them, through a fixed
// open-addressed table rather than a map, and stops at the first pattern
// past the limit.
type bitsTable struct {
	slot [4 * MaxCodeDict]uint16 // 1 + the code of the pattern held; 0 is empty
	bits [MaxCodeDict]uint64
	n    int
}

// code returns the code of bit pattern b, numbering it if new; ok is
// false when b would be pattern MaxCodeDict+1.
func (t *bitsTable) code(b uint64) (c uint8, ok bool) {
	h := (b * 0x9e3779b97f4a7c15) >> 54 // the top 10 bits pick a slot
	for ; t.slot[h] != 0; h = (h + 1) % uint64(len(t.slot)) {
		if s := t.slot[h]; t.bits[s-1] == b {
			return uint8(s - 1), true
		}
	}
	if t.n == MaxCodeDict {
		return 0, false
	}
	t.bits[t.n] = b
	t.n++
	t.slot[h] = uint16(t.n)
	return uint8(t.n - 1), true
}

// codeAll numbers the bit patterns of vals, writing each row's code into
// codes; ok is false past MaxCodeDict patterns.
func (t *bitsTable) codeAll(vals []float64, codes []int64) (ok bool) {
	for i, v := range vals {
		c, ok := t.code(math.Float64bits(v))
		if !ok {
			return false
		}
		codes[i] = int64(c)
	}
	return true
}

// encodeDictF64 appends the PDICT payload for vals, or returns nil when
// they hold no value or more than MaxCodeDict bit patterns.
func encodeDictF64(dst []byte, vals []float64) []byte {
	var t bitsTable
	codes := make([]int64, len(vals))
	if len(vals) == 0 || !t.codeAll(vals, codes) {
		return nil
	}
	dst = appendUvarint(dst, uint64(t.n))
	for _, b := range t.bits[:t.n] {
		dst = binary.LittleEndian.AppendUint64(dst, b)
	}
	return encodePFOR(dst, codes)
}

// readDictSize reads the entry count at the head of a PDICT payload and
// returns it with the rest of the payload. More than MaxCodeDict entries
// is an error: no encoder writes such a dictionary.
func readDictSize(src []byte) (uint64, []byte, error) {
	nd, k := binary.Uvarint(src)
	switch {
	case k <= 0:
		return 0, nil, fmt.Errorf("compress: truncated dict size")
	case nd > MaxCodeDict:
		return 0, nil, fmt.Errorf("compress: dictionary of %d entries, more than %d", nd, MaxCodeDict)
	}
	return nd, src[k:], nil
}

// readStrDict splits a string PDICT payload into its dictionary and the
// codes' PFOR payload.
func readStrDict(src []byte) (dict []string, codes []byte, err error) {
	nd, src, err := readDictSize(src)
	if err != nil {
		return nil, nil, err
	}
	if nd > uint64(len(src)) { // every entry takes a byte at least
		return nil, nil, fmt.Errorf("compress: truncated dict entries")
	}
	dict = make([]string, nd)
	for i := range dict {
		l, k1 := binary.Uvarint(src)
		if k1 <= 0 {
			return nil, nil, fmt.Errorf("compress: truncated dict entry")
		}
		src = src[k1:]
		if uint64(len(src)) < l {
			return nil, nil, fmt.Errorf("compress: truncated dict bytes")
		}
		dict[i] = string(src[:l])
		src = src[l:]
	}
	return dict, src, nil
}

// readF64Dict splits a DOUBLE PDICT payload into its dictionary and the
// codes' PFOR payload.
func readF64Dict(src []byte) (dict []float64, codes []byte, err error) {
	nd, src, err := readDictSize(src)
	if err != nil {
		return nil, nil, err
	}
	if nd > uint64(len(src)/8) {
		return nil, nil, fmt.Errorf("compress: truncated dict entries")
	}
	dict = make([]float64, nd)
	for i := range dict {
		dict[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dict, src[8*nd:], nil
}

// decodeDict decodes the codes of a PDICT payload of n values, src, over
// its dictionary dict. With withCodes it returns each row's code and no
// values; otherwise it returns the rows' values in dst (reallocated when
// too small) and no codes.
func decodeDict[T any](dst, dict []T, src []byte, n int, withCodes bool) (vals []T, codes []uint8, err error) {
	nd := uint64(len(dict))
	p, err := parsePFOR(src, n)
	if err != nil {
		return nil, nil, err
	}
	// Packed codes, then the exceptions over them. (A packed field under an
	// exception holds the low bits of a larger code, so it is in range
	// whenever the exception is.) No code is wider than a byte. Codes
	// unpack straight into their bytes, whose largest is checked against
	// the dictionary size; values unpack a block of codes at a time, into
	// an array on the stack, each checked.
	switch {
	case p.width > 8:
		return nil, nil, fmt.Errorf("compress: dict code width %d out of range", p.width)
	case withCodes:
		codes = make([]uint8, n)
		if hi := unpackBytes(codes, p.packed, p.width); p.base < 0 || uint64(p.base)+uint64(hi) >= nd {
			return nil, nil, fmt.Errorf("compress: dict code %d out of range", p.base+int64(hi))
		}
		if p.base > 0 {
			for i := range codes {
				codes[i] += uint8(p.base)
			}
		}
	default:
		vals = sized(dst, n)
		var blk [dictBlock]int64
		for lo := 0; lo < n; lo += dictBlock {
			b := blk[:min(dictBlock, n-lo)]
			unpackBits(b, p.packed, lo, p.width, p.base)
			for i, c := range b {
				if uint64(c) >= nd {
					return nil, nil, fmt.Errorf("compress: dict code %d out of range", c)
				}
				vals[lo+i] = dict[c]
			}
		}
	}
	err = p.patch(n, func(pos int, c int64) error {
		if uint64(c) >= nd {
			return fmt.Errorf("compress: dict code %d out of range", c)
		}
		if codes != nil {
			codes[pos] = uint8(c)
		} else {
			vals[pos] = dict[c]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, codes, nil
}

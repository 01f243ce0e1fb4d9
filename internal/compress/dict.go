package compress

import (
	"encoding/binary"
	"fmt"
)

// PDICT — dictionary coding for strings. The distinct values (in first-
// occurrence order) form the dictionary; the column becomes a vector of
// integer codes, themselves PFOR-coded. Low-cardinality string columns
// (flags, status words, nation names) shrink by an order of magnitude
// and decompress with one gather per vector. A chunk whose dictionary has
// at most MaxCodeDict entries can instead be decoded to its one-byte codes
// and its dictionary, with no string per row (DecompressStrCodes), so that
// operators run on the codes and read a row's string through the
// dictionary: the Vectorwise storage layer's processing on compressed data.
//
// Payload layout:
//
//	ndict  uvarint
//	ndict × (len uvarint, bytes)
//	PFOR payload of the n codes

// MaxCodeDict is the largest dictionary whose codes fit one byte.
const MaxCodeDict = 256

// dictBlock is how many codes decodeDict unpacks at a time, into an array
// on its stack rather than an n-row temporary.
const dictBlock = 256

// encodeDict appends the PDICT payload for vals. Returns nil if the
// column has too many distinct values to be worth dictionary coding
// (caller falls back to plain).
func encodeDict(dst []byte, vals []string) []byte {
	dict, codes, ok := buildDict(vals)
	if !ok {
		return nil
	}
	dst = appendUvarint(dst, uint64(len(dict)))
	for _, s := range dict {
		dst = appendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return encodePFOR(dst, codes)
}

// maxDictFraction bounds dictionary size: coding pays off only when the
// dictionary is much smaller than the column.
const maxDictFraction = 2

// buildDict returns the dictionary and code stream, or ok=false when
// cardinality is too high (more than 1/maxDictFraction of the rows).
func buildDict(vals []string) (dict []string, codes []int64, ok bool) {
	limit := len(vals)/maxDictFraction + 1
	idx := make(map[string]int64, 64)
	codes = make([]int64, len(vals))
	for i, s := range vals {
		c, found := idx[s]
		if !found {
			if len(dict) >= limit {
				return nil, nil, false
			}
			c = int64(len(dict))
			dict = append(dict, s)
			idx[s] = c
		}
		codes[i] = c
	}
	return dict, codes, true
}

// decodeDict decodes a PDICT payload of n values. With withCodes and a
// dictionary of at most MaxCodeDict entries it returns each row's code
// and the dictionary and no strings; otherwise it returns the rows'
// strings in dst (reallocated when too small) and no codes.
func decodeDict(dst []string, src []byte, n int, withCodes bool) (strs []string, codes []uint8, dict []string, err error) {
	nd, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, nil, fmt.Errorf("compress: truncated dict size")
	}
	if src = src[k:]; nd > uint64(len(src)) { // every entry takes a byte at least
		return nil, nil, nil, fmt.Errorf("compress: truncated dict entries")
	}
	dict = make([]string, nd)
	for i := range dict {
		l, k1 := binary.Uvarint(src)
		if k1 <= 0 {
			return nil, nil, nil, fmt.Errorf("compress: truncated dict entry")
		}
		src = src[k1:]
		if uint64(len(src)) < l {
			return nil, nil, nil, fmt.Errorf("compress: truncated dict bytes")
		}
		dict[i] = string(src[:l])
		src = src[l:]
	}
	p, err := parsePFOR(src, n)
	if err != nil {
		return nil, nil, nil, err
	}
	if withCodes && nd <= MaxCodeDict {
		codes = make([]uint8, n)
	} else {
		strs = sized(dst, n)
	}
	// Packed codes a block at a time, then the exceptions over them. (A
	// packed field under an exception holds the low bits of a larger
	// code, so it is in range whenever the exception is.)
	var blk [dictBlock]int64
	for lo := 0; lo < n; lo += dictBlock {
		b := blk[:min(dictBlock, n-lo)]
		unpackBits(b, p.packed, lo, p.width, p.base)
		if codes != nil {
			for i, c := range b {
				if uint64(c) >= nd {
					return nil, nil, nil, fmt.Errorf("compress: dict code %d out of range", c)
				}
				codes[lo+i] = uint8(c)
			}
			continue
		}
		for i, c := range b {
			if uint64(c) >= nd {
				return nil, nil, nil, fmt.Errorf("compress: dict code %d out of range", c)
			}
			strs[lo+i] = dict[c]
		}
	}
	err = p.patch(n, func(pos int, c int64) error {
		if uint64(c) >= nd {
			return fmt.Errorf("compress: dict code %d out of range", c)
		}
		if codes != nil {
			codes[pos] = uint8(c)
		} else {
			strs[pos] = dict[c]
		}
		return nil
	})
	switch {
	case err != nil:
		return nil, nil, nil, err
	case codes != nil:
		return nil, codes, dict, nil
	}
	return strs, nil, nil, nil
}

// estimateDictSize approximates the PDICT size, or -1 when dictionary
// coding is not applicable.
func estimateDictSize(vals []string) int {
	dict, codes, ok := buildDict(vals)
	if !ok {
		return -1
	}
	size := 4
	for _, s := range dict {
		size += len(s) + 2
	}
	return size + estimatePFORSize(codes)
}

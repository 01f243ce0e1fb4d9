// Package compress implements the light-weight column compression schemes
// Vectorwise inherited from the "Super-Scalar RAM-CPU Cache Compression"
// work (paper ref [2]): PFOR (patched frame-of-reference), PFOR-DELTA,
// PDICT (dictionary coding) and RLE, plus plain fallbacks. The design
// goal is the one the paper states: decompression so cheap that scans
// stay CPU-bound even when fed from compressed disk blocks, which is
// what made the X100 engine I/O-balanced.
//
// Every compressed chunk is framed as:
//
//	byte 0:    codec tag
//	bytes 1-3: zero
//	bytes 4-7: row count (little-endian uint32)
//	bytes 8+:  codec payload
//
// so a chunk is self-describing and decoders can be picked per chunk. A
// chunk's codec is chosen where it is encoded: EncodeI64, EncodeF64 and
// EncodeStr each code a chunk and return the codec they picked.
package compress

import (
	"encoding/binary"
	"math/bits"
)

// packBits appends len(vals) values of the given bit width (1..64) to
// dst, bit-addressed little-endian. Each value is written at bit offset
// i*width; a value may straddle the 64-bit load window, in which case
// its top bits land in a ninth byte. Values wider than `width` bits are
// masked (the PFOR caller patches such exceptions separately).
func packBits(dst []byte, vals []uint64, width uint) []byte {
	if width == 0 {
		return dst
	}
	start := len(dst)
	dst = append(dst, make([]byte, packedLen(len(vals), width))...)
	buf := dst[start:]
	mask := widthMask(width)
	for i, v := range vals {
		v &= mask
		bitpos := uint(i) * width
		bytepos := int(bitpos >> 3)
		shift := bitpos & 7
		cur := v << shift
		nb := int((shift + width + 7) / 8)
		for k := 0; k < nb && k < 8; k++ {
			buf[bytepos+k] |= byte(cur >> (8 * uint(k)))
		}
		if shift+width > 64 {
			buf[bytepos+8] |= byte(v >> (64 - shift))
		}
	}
	return dst
}

// unpackBits decodes the values at positions [lo, lo+len(dst)) of the
// given width from src into dst, each added to base (with int64
// wrap-around, the frame-of-reference addition the encoder inverted).
func unpackBits(dst []int64, src []byte, lo int, width uint, base int64) {
	if width == 0 {
		for i := range dst {
			dst[i] = base
		}
		return
	}
	mask := widthMask(width)
	for i := range dst {
		bitpos := uint(lo+i) * width
		bytepos := int(bitpos >> 3)
		shift := bitpos & 7
		v := loadLE64(src, bytepos) >> shift
		if shift+width > 64 {
			v |= uint64(src[bytepos+8]) << (64 - shift)
		}
		dst[i] = base + int64(v&mask)
	}
}

// unpackBytes decodes the first len(dst) values of the given width (at
// most 8) from src into dst, without a base, and returns the largest: a
// dictionary chunk's codes, checked against the dictionary once. Eight
// values take width bytes, so one 8-byte load holds eight of them; four
// running maxima keep the compares from waiting on one another.
func unpackBytes(dst []uint8, src []byte, width uint) (hi uint8) {
	if width == 0 {
		clear(dst)
		return 0
	}
	mask, w := widthMask(width), int(width)
	var m0, m1, m2, m3 uint8
	i := 0
	for ; i+8 <= len(dst) && i/8*w+8 <= len(src); i += 8 {
		x, d := binary.LittleEndian.Uint64(src[i/8*w:]), dst[i:i+8:i+8]
		a0, a1 := uint8(x&mask), uint8(x>>width&mask)
		a2, a3 := uint8(x>>(2*width)&mask), uint8(x>>(3*width)&mask)
		a4, a5 := uint8(x>>(4*width)&mask), uint8(x>>(5*width)&mask)
		a6, a7 := uint8(x>>(6*width)&mask), uint8(x>>(7*width)&mask)
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = a0, a1, a2, a3, a4, a5, a6, a7
		m0, m1, m2, m3 = max(m0, a0, a4), max(m1, a1, a5), max(m2, a2, a6), max(m3, a3, a7)
	}
	for ; i < len(dst); i++ {
		bitpos := uint(i) * width
		dst[i] = uint8(loadLE64(src, int(bitpos>>3)) >> (bitpos & 7) & mask)
		m0 = max(m0, dst[i])
	}
	return max(m0, m1, m2, m3)
}

// loadLE64 loads up to 8 bytes little-endian starting at pos, padding
// with zeros past the end of src.
func loadLE64(src []byte, pos int) uint64 {
	if pos+8 <= len(src) {
		return binary.LittleEndian.Uint64(src[pos:])
	}
	var v uint64
	for k := 0; pos+k < len(src); k++ {
		v |= uint64(src[pos+k]) << (8 * uint(k))
	}
	return v
}

// widthMask returns a mask of the low `width` bits (width in 1..64).
func widthMask(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// bitsNeeded returns the minimal width that represents v (at least 0,
// at most 64).
func bitsNeeded(v uint64) uint { return uint(bits.Len64(v)) }

// packedLen returns the byte length of n values at the given width.
func packedLen(n int, width uint) int {
	return (n*int(width) + 7) / 8
}

// zigzag maps signed integers to unsigned so small magnitudes stay small.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends a varint to dst.
func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

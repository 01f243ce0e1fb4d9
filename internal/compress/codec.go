package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec identifies a chunk encoding.
type Codec uint8

// Chunk codecs. The tag is the first byte of every compressed chunk.
const (
	// CodecPlainI64 stores int64 values verbatim (8 bytes LE each).
	CodecPlainI64 Codec = iota + 1
	// CodecPFOR is patched frame-of-reference bit packing.
	CodecPFOR
	// CodecPFORDelta is PFOR over zigzag consecutive deltas.
	CodecPFORDelta
	// CodecRLE is run-length coding of integers.
	CodecRLE
	// CodecPlainF64 stores float64 bit patterns verbatim.
	CodecPlainF64
	// CodecPlainStr stores every row's length, then every row's bytes
	// (plainstr.go).
	CodecPlainStr
	// CodecDict is PDICT dictionary coding of strings.
	CodecDict
	// CodecBoolPack stores booleans as a bitmap.
	CodecBoolPack
	// CodecDictF64 is PDICT dictionary coding of float64 bit patterns.
	CodecDictF64
)

// String names the codec for stats output.
func (c Codec) String() string {
	switch c {
	case CodecPlainI64:
		return "plain-i64"
	case CodecPFOR:
		return "pfor"
	case CodecPFORDelta:
		return "pfor-delta"
	case CodecRLE:
		return "rle"
	case CodecPlainF64:
		return "plain-f64"
	case CodecPlainStr:
		return "plain-str"
	case CodecDict:
		return "pdict"
	case CodecBoolPack:
		return "boolpack"
	case CodecDictF64:
		return "pdict-f64"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

func frameHeader(dst []byte, c Codec, n int) []byte {
	dst = append(dst, byte(c))
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(n))
	return append(dst, cnt[:]...)
}

// ReadHeader returns the codec, row count and payload of a framed chunk.
func ReadHeader(data []byte) (Codec, int, []byte, error) {
	if len(data) < 5 {
		return 0, 0, nil, fmt.Errorf("compress: chunk too short (%d bytes)", len(data))
	}
	c := Codec(data[0])
	n := int(binary.LittleEndian.Uint32(data[1:5]))
	return c, n, data[5:], nil
}

// CompressI64 encodes vals with the requested codec (CodecPlainI64,
// CodecPFOR, CodecPFORDelta or CodecRLE).
func CompressI64(vals []int64, codec Codec) ([]byte, error) {
	dst := frameHeader(nil, codec, len(vals))
	if len(vals) == 0 {
		return dst, nil
	}
	switch codec {
	case CodecPlainI64:
		for _, v := range vals {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			dst = append(dst, b[:]...)
		}
	case CodecPFOR:
		dst = encodePFOR(dst, vals)
	case CodecPFORDelta:
		dst = encodePFORDelta(dst, vals)
	case CodecRLE:
		dst = encodeRLE(dst, vals)
	default:
		return nil, fmt.Errorf("compress: codec %v cannot encode int64", codec)
	}
	return dst, nil
}

// DecompressI64 decodes a framed int64 chunk into dst (grown as needed)
// and returns the decoded slice.
func DecompressI64(dst []int64, data []byte) ([]int64, error) {
	codec, n, payload, err := ReadHeader(data)
	if err != nil {
		return nil, err
	}
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst, nil
	}
	switch codec {
	case CodecPlainI64:
		if len(payload) < 8*n {
			return nil, fmt.Errorf("compress: truncated plain-i64 chunk")
		}
		for i := 0; i < n; i++ {
			dst[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	case CodecPFOR:
		err = decodePFOR(dst, payload, n)
	case CodecPFORDelta:
		err = decodePFORDelta(dst, payload, n)
	case CodecRLE:
		err = decodeRLE(dst, payload, n)
	default:
		return nil, fmt.Errorf("compress: codec %v is not an int64 codec", codec)
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// CompressF64 encodes vals with CodecPlainF64 or CodecDictF64. A
// CodecDictF64 request falls back to plain when vals hold more than
// MaxCodeDict bit patterns; the frame records what was actually used.
func CompressF64(vals []float64, codec Codec) ([]byte, error) {
	switch codec {
	case CodecDictF64:
		if len(vals) > 0 {
			if out := encodeDictF64(frameHeader(nil, CodecDictF64, len(vals)), vals); out != nil {
				return out, nil
			}
		}
		return CompressF64(vals, CodecPlainF64)
	case CodecPlainF64:
		dst := frameHeader(nil, CodecPlainF64, len(vals))
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("compress: codec %v cannot encode float64", codec)
	}
}

// DecompressF64 decodes a framed float64 chunk, of either codec, into dst
// (grown as needed) and returns the decoded slice.
func DecompressF64(dst []float64, data []byte) ([]float64, error) {
	vals, _, _, err := decompressF64(dst, data, false)
	return vals, err
}

// DecompressF64Codes decodes a framed float64 chunk. A PDICT chunk
// decodes to each row's one-byte code and the dictionary, row i being
// dict[codes[i]], and vals == nil: no value per row is made. A plain chunk
// decodes to fresh values, as DecompressF64, with codes == nil.
func DecompressF64Codes(data []byte) (vals []float64, codes []uint8, dict []float64, err error) {
	return decompressF64(nil, data, true)
}

func decompressF64(dst []float64, data []byte, withCodes bool) ([]float64, []uint8, []float64, error) {
	codec, n, payload, err := ReadHeader(data)
	if err != nil {
		return nil, nil, nil, err
	}
	switch {
	case n == 0:
		return sized(dst, 0), nil, nil, nil
	case codec == CodecPlainF64:
		if len(payload) < 8*n {
			return nil, nil, nil, fmt.Errorf("compress: truncated plain-f64 chunk")
		}
		dst = sized(dst, n)
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		return dst, nil, nil, nil
	case codec == CodecDictF64:
		dict, src, err := readF64Dict(payload)
		if err != nil {
			return nil, nil, nil, err
		}
		vals, codes, err := decodeDict(dst, dict, src, n, withCodes)
		if codes == nil {
			dict = nil
		}
		return vals, codes, dict, err
	default:
		return nil, nil, nil, fmt.Errorf("compress: codec %v is not a float64 codec", codec)
	}
}

// CompressStr encodes vals with CodecPlainStr or CodecDict. A CodecDict
// request silently falls back to plain when cardinality is too high;
// the frame records what was actually used.
func CompressStr(vals []string, codec Codec) ([]byte, error) {
	switch codec {
	case CodecDict:
		dst := frameHeader(nil, CodecDict, len(vals))
		if len(vals) == 0 {
			return dst, nil
		}
		if out := encodeDict(dst, vals); out != nil {
			return out, nil
		}
		return CompressStr(vals, CodecPlainStr)
	case CodecPlainStr:
		return encodePlainStr(frameHeader(nil, CodecPlainStr, len(vals)), vals)
	default:
		return nil, fmt.Errorf("compress: codec %v cannot encode strings", codec)
	}
}

// DecompressStr decodes a framed string chunk to fresh strings, one a row.
func DecompressStr(dst []string, data []byte) ([]string, error) {
	strs, _, _, err := decompressStr(dst, data, false)
	return strs, err
}

// DecompressStrCodes decodes a framed string chunk. A PDICT chunk whose
// dictionary has at most MaxCodeDict entries decodes to each row's
// one-byte code and the dictionary, row i being dict[codes[i]], and
// strs == nil: no string per row is made. A larger dictionary decodes to
// fresh strings, as DecompressStr, with codes == nil. (A plain chunk
// decodes without a string per row through DecompressStrArena.)
func DecompressStrCodes(data []byte) (strs []string, codes []uint8, dict []string, err error) {
	return decompressStr(nil, data, true)
}

func decompressStr(dst []string, data []byte, withCodes bool) ([]string, []uint8, []string, error) {
	codec, n, payload, err := ReadHeader(data)
	if err != nil {
		return nil, nil, nil, err
	}
	switch {
	case n == 0:
		return sized(dst, 0), nil, nil, nil
	case codec == CodecPlainStr:
		off, bytes, err := decodePlainStr(payload, n)
		if err != nil {
			return nil, nil, nil, err
		}
		dst = sized(dst, n)
		for i := range dst {
			dst[i] = string(bytes[off[i]:off[i+1]])
		}
		return dst, nil, nil, nil
	case codec == CodecDict:
		dict, src, err := readStrDict(payload)
		if err != nil {
			return nil, nil, nil, err
		}
		strs, codes, err := decodeDict(dst, dict, src, n, withCodes)
		if codes == nil {
			dict = nil
		}
		return strs, codes, dict, err
	default:
		return nil, nil, nil, fmt.Errorf("compress: codec %v is not a string codec", codec)
	}
}

// sized returns dst resized to n values, reallocated when too small.
func sized[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

// CompressBool encodes a bool chunk as a bitmap.
func CompressBool(vals []bool) ([]byte, error) {
	dst := frameHeader(nil, CodecBoolPack, len(vals))
	var acc byte
	var nbits uint
	for _, v := range vals {
		if v {
			acc |= 1 << nbits
		}
		nbits++
		if nbits == 8 {
			dst = append(dst, acc)
			acc, nbits = 0, 0
		}
	}
	if nbits > 0 {
		dst = append(dst, acc)
	}
	return dst, nil
}

// DecompressBool decodes a framed bool chunk.
func DecompressBool(dst []bool, data []byte) ([]bool, error) {
	codec, n, payload, err := ReadHeader(data)
	if err != nil {
		return nil, err
	}
	if codec != CodecBoolPack {
		return nil, fmt.Errorf("compress: codec %v is not a bool codec", codec)
	}
	if len(payload) < (n+7)/8 {
		return nil, fmt.Errorf("compress: truncated bool chunk")
	}
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = payload[i/8]&(1<<(uint(i)%8)) != 0
	}
	return dst, nil
}

// ChooseI64Codec analyzes an integer column chunk and returns the codec
// with the smallest estimated encoding, mirroring the per-chunk codec
// selection of the Vectorwise storage layer.
func ChooseI64Codec(vals []int64) Codec {
	if len(vals) == 0 {
		return CodecPlainI64
	}
	best, bestSize := CodecPlainI64, 8*len(vals)
	if s := estimatePFORSize(vals); s < bestSize {
		best, bestSize = CodecPFOR, s
	}
	if s := estimatePFORDeltaSize(vals); s < bestSize {
		best, bestSize = CodecPFORDelta, s
	}
	// RLE only pays when runs are long; require 4× fewer runs than rows.
	if runs := countRuns(vals); runs*4 < len(vals) {
		if s := estimateRLESize(vals); s < bestSize {
			best, bestSize = CodecRLE, s
		}
	}
	_ = bestSize
	return best
}

// ChooseF64Codec analyzes a DOUBLE column chunk: PDICT when it holds at
// most MaxCodeDict bit patterns and codes them in fewer bytes than plain.
func ChooseF64Codec(vals []float64) Codec {
	if d := estimateDictF64Size(vals); d >= 0 && d < 8*len(vals) {
		return CodecDictF64
	}
	return CodecPlainF64
}

// ChooseStrCodec analyzes a string column chunk.
func ChooseStrCodec(vals []string) Codec {
	if len(vals) == 0 {
		return CodecPlainStr
	}
	plain := 0
	for _, s := range vals {
		plain += len(s) + 1
	}
	if d := estimateDictSize(vals); d >= 0 && d < plain {
		return CodecDict
	}
	return CodecPlainStr
}

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
	// CodecFSST codes strings with a per-chunk symbol table (fsst.go).
	CodecFSST
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
	case CodecFSST:
		return "fsst"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// headerLen is the length of a chunk's frame: the codec byte, three zero
// bytes and the row count as a little-endian uint32. Eight bytes keep
// the payload of a chunk that starts 8-aligned 8-aligned as well, so a
// plain BIGINT or DOUBLE payload can be read where it lies (package
// storage).
const headerLen = 8

func frameHeader(dst []byte, c Codec, n int) []byte {
	dst = append(dst, byte(c), 0, 0, 0)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// ReadHeader returns the codec, row count and payload of a framed chunk.
func ReadHeader(data []byte) (Codec, int, []byte, error) {
	if len(data) < headerLen {
		return 0, 0, nil, fmt.Errorf("compress: chunk too short (%d bytes)", len(data))
	}
	c := Codec(data[0])
	n := int(binary.LittleEndian.Uint32(data[4:headerLen]))
	return c, n, data[headerLen:], nil
}

// EncodeI64 tries RLE only on a chunk whose runs average more than
// rleRowsPerRun rows: RLE pays only when runs are long.
const rleRowsPerRun = 4

// EncodeI64 encodes a BIGINT or DATE chunk and returns it with its codec:
// the smallest of plain, PFOR, PFOR-DELTA and, on a chunk of long runs,
// RLE. In that order a codec replaces the best so far only when its chunk
// is strictly smaller; plain's size is known without encoding it.
func EncodeI64(vals []int64) ([]byte, Codec) {
	var best []byte
	codec, size := CodecPlainI64, headerLen+8*len(vals)
	for _, c := range []Codec{CodecPFOR, CodecPFORDelta, CodecRLE} {
		if c == CodecRLE && countRuns(vals)*rleRowsPerRun >= len(vals) {
			break
		}
		if out := encodeI64(vals, c); len(out) < size {
			best, codec, size = out, c, len(out)
		}
	}
	if best == nil {
		best = encodeI64(vals, CodecPlainI64)
	}
	return best, codec
}

// encodeI64 encodes vals with one of the int64 codecs, whether or not
// EncodeI64 would pick it.
func encodeI64(vals []int64, codec Codec) []byte {
	if codec == CodecPlainI64 {
		dst := frameHeader(make([]byte, 0, headerLen+8*len(vals)), codec, len(vals))
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
		return dst
	}
	dst := frameHeader(nil, codec, len(vals))
	switch {
	case len(vals) == 0:
		return dst
	case codec == CodecPFOR:
		return encodePFOR(dst, vals)
	case codec == CodecPFORDelta:
		return encodePFORDelta(dst, vals)
	}
	return encodeRLE(dst, vals)
}

// DecompressI64 decodes a framed int64 chunk into dst (grown as needed)
// and returns the decoded slice: one I64Reader.Read of every row. The
// payload is checked against the frame's row count before dst is sized
// by it, so a corrupt count is an error, not an allocation of up to 2^32
// values.
func DecompressI64(dst []int64, data []byte) ([]int64, error) {
	r, err := NewI64Reader(data)
	if err != nil {
		return nil, err
	}
	dst = sized(dst, r.Len())
	if err := r.Read(dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// I64Reader decodes a framed int64 chunk front to back, a block of rows
// at a time, into a buffer of the caller's: the block form of
// DecompressI64, which lets a caller keep no full-width copy of a chunk
// (package storage narrows each block as it comes). A PFOR block is
// unpacked from its bit offset and patched by the exceptions that fall in
// it, a PFOR-DELTA block carries the running sum over from the block
// before, and an RLE block the rest of its run.
type I64Reader struct {
	codec   Codec
	n, at   int    // rows in the chunk, rows read
	payload []byte // plain: the values; RLE: the runs not yet begun
	p       pforPayload
	exc     excCursor // PFOR: the first exception at or after at
	sum     int64     // PFOR-DELTA: the last value read
	run     int       // RLE: rows left of the current run, of value v
	v       int64
}

// NewI64Reader checks a framed int64 chunk's payload against its row
// count, as DecompressI64 does, and returns a reader at its first row.
func NewI64Reader(data []byte) (I64Reader, error) {
	codec, n, payload, err := ReadHeader(data)
	if err != nil || n == 0 {
		return I64Reader{}, err
	}
	r := I64Reader{codec: codec, n: n, payload: payload}
	switch codec {
	case CodecPlainI64:
		if len(payload)/8 < n {
			err = fmt.Errorf("compress: truncated plain-i64 chunk")
		}
	case CodecPFOR, CodecPFORDelta:
		if r.p, err = parsePFOR(payload, n); err == nil {
			r.exc, err = r.p.exceptions(n)
		}
	case CodecRLE:
		err = checkRLE(payload, n)
	default:
		err = fmt.Errorf("compress: codec %v is not an int64 codec", codec)
	}
	if err != nil {
		return I64Reader{}, err
	}
	return r, nil
}

// Len returns the chunk's row count.
func (r *I64Reader) Len() int { return r.n }

// Read decodes the next len(dst) rows into dst; they must not run past
// the chunk's end.
func (r *I64Reader) Read(dst []int64) error {
	lo := r.at
	if len(dst) > r.n-lo {
		return fmt.Errorf("compress: read of %d rows from row %d of %d", len(dst), lo, r.n)
	}
	r.at += len(dst)
	switch r.codec {
	case CodecPlainI64:
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(r.payload[8*(lo+i):]))
		}
	case CodecRLE:
		for i := 0; i < len(dst); {
			if r.run == 0 { // checkRLE vouched for every run up to row n
				v, run, k := rleRun(r.payload)
				r.payload, r.run, r.v = r.payload[k:], int(run), v
				continue
			}
			k := min(r.run, len(dst)-i)
			for j := range dst[i : i+k] {
				dst[i+j] = r.v
			}
			i, r.run = i+k, r.run-k
		}
	default:
		unpackBits(dst, r.p.packed, lo, r.p.width, r.p.base)
		for r.exc.pos < r.at {
			dst[r.exc.pos-lo] = r.exc.val
			if err := r.exc.next(); err != nil {
				return err
			}
		}
		if r.codec == CodecPFORDelta {
			s := r.sum
			for i, d := range dst {
				s += unzigzag(uint64(d))
				dst[i] = s
			}
			r.sum = s
		}
	}
	return nil
}

// EncodeF64 encodes a DOUBLE chunk and returns it with its codec: PDICT
// when vals hold at most MaxCodeDict bit patterns and that chunk is
// smaller than plain, else plain.
func EncodeF64(vals []float64) ([]byte, Codec) {
	plain := headerLen + 8*len(vals)
	if out := encodeDictF64(frameHeader(nil, CodecDictF64, len(vals)), vals); out != nil && len(out) < plain {
		return out, CodecDictF64
	}
	dst := frameHeader(make([]byte, 0, plain), CodecPlainF64, len(vals))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, CodecPlainF64
}

// DecompressF64 decodes a framed float64 chunk, of either codec, into dst
// (grown as needed) and returns the decoded slice.
func DecompressF64(dst []float64, data []byte) ([]float64, error) {
	codec, n, payload, err := ReadHeader(data)
	if err != nil {
		return nil, err
	}
	switch {
	case n == 0:
		return sized(dst, 0), nil
	case codec == CodecPlainF64:
		if len(payload) < 8*n {
			return nil, fmt.Errorf("compress: truncated plain-f64 chunk")
		}
		dst = sized(dst, n)
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		return dst, nil
	case codec == CodecDictF64:
		dict, src, err := readF64Dict(payload)
		if err != nil {
			return nil, err
		}
		vals, _, err := decodeDict(dst, dict, src, n, false)
		return vals, err
	default:
		return nil, fmt.Errorf("compress: codec %v is not a float64 codec", codec)
	}
}

// DecompressF64Codes decodes a framed float64 PDICT chunk to each row's
// one-byte code and the dictionary, row i being dict[codes[i]]: no value
// per row is made.
func DecompressF64Codes(data []byte) (codes []uint8, dict []float64, err error) {
	return decompressCodes(data, CodecDictF64, readF64Dict)
}

// EncodeStr encodes a VARCHAR chunk and returns it with its codec. Its
// dictionary is built once, to at most MaxCodeDict entries: when that
// holds every value, the chunk is PDICT if that is smaller than plain;
// when it does not, FSST if that is smaller than plain. Otherwise the
// chunk is plain.
func EncodeStr(vals []string) ([]byte, Codec, error) {
	out, codec := encodeDict(frameHeader(nil, CodecDict, len(vals)), vals), CodecDict
	if out == nil {
		out, codec = encodeFSST(frameHeader(nil, CodecFSST, len(vals)), vals), CodecFSST
	}
	if out != nil && len(out) < plainStrSize(vals) {
		return out, codec, nil
	}
	out, err := encodePlainStr(frameHeader(nil, CodecPlainStr, len(vals)), vals)
	return out, CodecPlainStr, err
}

// DecompressStr decodes a framed string chunk to fresh strings, one a row.
func DecompressStr(dst []string, data []byte) ([]string, error) {
	codec, n, payload, err := ReadHeader(data)
	if err != nil {
		return nil, err
	}
	switch {
	case codec == CodecPlainStr:
		off, bytes, err := decodePlainStr(payload, n)
		if err != nil {
			return nil, err
		}
		dst = sized(dst, n)
		for i := range dst {
			dst[i] = string(bytes[off[i]:off[i+1]])
		}
		return dst, nil
	case codec == CodecFSST:
		sym, off, codes, err := decodeFSST(payload, n)
		if err != nil {
			return nil, err
		}
		dst = sized(dst, n)
		var buf []byte
		for i := range dst {
			row := codes[off[i]:off[i+1]]
			buf = sym.Decode(buf[:0], row)
			dst[i] = string(buf)
		}
		return dst, nil
	case codec == CodecDict && n == 0: // as DecompressStrCodes reads it
		return sized(dst, 0), nil
	case codec == CodecDict:
		dict, src, err := readStrDict(payload)
		if err != nil {
			return nil, err
		}
		strs, _, err := decodeDict(dst, dict, src, n, false)
		return strs, err
	default:
		return nil, fmt.Errorf("compress: codec %v is not a string codec", codec)
	}
}

// DecompressStrCodes decodes a framed string PDICT chunk to each row's
// one-byte code and the dictionary, row i being dict[codes[i]]: no string
// per row is made. (A plain or FSST chunk decodes without a string per
// row through DecompressStrArena.)
func DecompressStrCodes(data []byte) (codes []uint8, dict []string, err error) {
	return decompressCodes(data, CodecDict, readStrDict)
}

// decompressCodes decodes a framed PDICT chunk of codec want, whose
// dictionary readDict parses, to its codes and dictionary.
func decompressCodes[T any](data []byte, want Codec, readDict func([]byte) ([]T, []byte, error)) ([]uint8, []T, error) {
	codec, n, payload, err := ReadHeader(data)
	switch {
	case err != nil:
		return nil, nil, err
	case codec != want:
		return nil, nil, fmt.Errorf("compress: codec %v is not %v", codec, want)
	case n == 0:
		return nil, nil, nil
	}
	dict, src, err := readDict(payload)
	if err != nil {
		return nil, nil, err
	}
	_, codes, err := decodeDict(nil, dict, src, n, true)
	if err != nil {
		return nil, nil, err
	}
	return codes, dict, nil
}

// sized returns dst resized to n values, reallocated when too small.
func sized[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

// EncodeBool encodes a BOOLEAN chunk, or a column's NULL flags, as a
// bitmap (CodecBoolPack).
func EncodeBool(vals []bool) []byte {
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
	return dst
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

// plainStrSize is the size of vals' plain-str chunk.
func plainStrSize(vals []string) int {
	plain := headerLen
	for _, s := range vals {
		plain += len(s) + uvarintLen(len(s))
	}
	return plain
}

package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A CodecPlainStr chunk is Arrow's variable-length layout laid out on
// disk: after the frame, every row's length as a uvarint, then all the
// rows' bytes, contiguous. Decoding walks the lengths once into n+1
// offsets and takes the bytes where they lie in the chunk, so a decoded
// chunk copies no byte and makes no string (DecompressStrArena).

// encodePlainStr appends vals in the plain-str layout. Offsets are
// uint32, so a chunk whose bytes total more than math.MaxUint32 is
// refused, before anything is copied.
func encodePlainStr(dst []byte, vals []string) ([]byte, error) {
	total := 0
	for _, s := range vals {
		total += len(s)
	}
	if uint64(total) > math.MaxUint32 {
		return nil, fmt.Errorf("compress: plain-str chunk of %d bytes does not fit uint32 offsets", total)
	}
	for _, s := range vals {
		dst = appendUvarint(dst, uint64(len(s)))
	}
	for _, s := range vals {
		dst = append(dst, s...)
	}
	return dst, nil
}

// DecompressStrArena decodes a framed CodecPlainStr chunk to its offsets
// and bytes: row i is bytes[off[i]:off[i+1]], off has n+1 entries, and
// bytes is a subslice of data, not a copy.
func DecompressStrArena(data []byte) (off []uint32, bytes []byte, err error) {
	codec, n, payload, err := ReadHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if codec != CodecPlainStr {
		return nil, nil, fmt.Errorf("compress: codec %v is not plain-str", codec)
	}
	return decodePlainStr(payload, n)
}

// decodePlainStr reads the n lengths at the head of a plain-str payload
// into offsets and returns them with the rows' bytes, the rest of the
// payload. Lengths that overrun the payload, or leave bytes after the
// last row, are an error.
func decodePlainStr(payload []byte, n int) ([]uint32, []byte, error) {
	if n > len(payload) { // every length takes a byte at least
		return nil, nil, fmt.Errorf("compress: truncated plain-str chunk")
	}
	off := make([]uint32, n+1)
	var end uint64
	for i := 1; i <= n; i++ {
		l, k := binary.Uvarint(payload)
		if k <= 0 {
			return nil, nil, fmt.Errorf("compress: truncated plain-str length")
		}
		payload = payload[k:]
		if rest := uint64(len(payload)); end > rest || l > rest-end || end+l > math.MaxUint32 {
			return nil, nil, fmt.Errorf("compress: plain-str lengths overrun the chunk")
		}
		end += l
		off[i] = uint32(end)
	}
	if end != uint64(len(payload)) {
		return nil, nil, fmt.Errorf("compress: %d bytes after the last plain-str row", uint64(len(payload))-end)
	}
	return off, payload[:len(payload):len(payload)], nil
}

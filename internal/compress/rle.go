package compress

import (
	"encoding/binary"
	"fmt"
)

// RLE codes runs of identical integers as (zigzag value, run length)
// varint pairs. Low-cardinality clustered columns (flags, statuses laid
// down in order) collapse dramatically.

// encodeRLE appends the RLE payload for vals.
func encodeRLE(dst []byte, vals []int64) []byte {
	i := 0
	for i < len(vals) {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst = appendUvarint(dst, zigzag(vals[i]))
		dst = appendUvarint(dst, uint64(j-i))
		i = j
	}
	return dst
}

// decodeRLE decodes an RLE payload of n values into dst, or with dst nil
// only checks that its runs add up to n, so that a caller can size dst
// after the payload has vouched for n. A run is compared as a uint64: one
// of 2^63 or more would wrap an int negative and pass.
func decodeRLE(dst []int64, src []byte, n int) error {
	for i := 0; i < n; {
		zv, k := binary.Uvarint(src)
		if k <= 0 {
			return fmt.Errorf("compress: truncated RLE value")
		}
		src = src[k:]
		run, k2 := binary.Uvarint(src)
		if k2 <= 0 {
			return fmt.Errorf("compress: truncated RLE run")
		}
		src = src[k2:]
		if run > uint64(n-i) {
			return fmt.Errorf("compress: RLE run overflows chunk")
		}
		if dst != nil {
			v := unzigzag(zv)
			for j := i; j < i+int(run); j++ {
				dst[j] = v
			}
		}
		i += int(run)
	}
	return nil
}

// estimateRLESize approximates the encoded size of vals under RLE.
func estimateRLESize(vals []int64) int {
	runs := 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		runs++
		i = j
	}
	return runs * 6 // ~6 bytes per (value, run) pair on average
}

// countRuns reports the number of runs (exported for tests/stats).
func countRuns(vals []int64) int {
	if len(vals) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	return runs
}

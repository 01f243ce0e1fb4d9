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

// rleRun parses the run at the head of an RLE payload: its value, its
// length and the bytes it takes, k, which is 0 when the run is truncated
// or malformed.
func rleRun(src []byte) (v int64, run uint64, k int) {
	zv, k1 := binary.Uvarint(src)
	if k1 <= 0 {
		return 0, 0, 0
	}
	run, k2 := binary.Uvarint(src[k1:])
	if k2 <= 0 {
		return 0, 0, 0
	}
	return unzigzag(zv), run, k1 + k2
}

// checkRLE checks that an RLE payload's runs add up to n rows, so that a
// reader can size its output after the payload has vouched for n, and
// I64Reader read its runs without checking them again. A run is compared
// as a uint64: one of 2^63 or more would wrap an int negative and pass.
func checkRLE(src []byte, n int) error {
	for i := 0; i < n; {
		_, run, k := rleRun(src)
		if k == 0 {
			return fmt.Errorf("compress: truncated RLE run")
		}
		if run > uint64(n-i) {
			return fmt.Errorf("compress: RLE run overflows chunk")
		}
		src, i = src[k:], i+int(run)
	}
	return nil
}

// countRuns returns the number of runs of equal values in vals.
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

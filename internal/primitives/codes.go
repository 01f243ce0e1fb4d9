package primitives

import "math"

// Dictionary-code kernels. A VARCHAR or DOUBLE vector read from a
// dictionary-coded chunk holds each row's one-byte code and the dictionary
// instead of a value per row (vector.Vector.Codes), and grouping and
// predicates work on the codes: the Vectorwise storage layer's processing
// on compressed data. A BIGINT or DATE group key whose batch spans a small range codes each
// row as its offset in that range instead, as X100's direct aggregation
// indexes an array by a small-domain key.

// MapAddCodes adds codes[i]*stride to dst[i] for live i: one key's part
// of a combined code Σ code_k·stride_k.
func MapAddCodes(dst []uint16, codes []uint8, stride uint16, sel []int32, n int) {
	if sel == nil {
		for i, c := range codes[:n] {
			dst[i] += uint16(c) * stride
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] += uint16(codes[i]) * stride
	}
}

// LookupCodes sets groups[i] = table[comb[i]] - 1 for live i, where table
// holds 1 + a combined code's group id, and reports whether some live row
// found a 0: a combination not yet resolved, whose group id wrapped.
func LookupCodes(groups, table []uint32, comb []uint16, sel []int32, n int) (missing bool) {
	var found uint32 = 1 // stays 1 while every slot read is non-zero
	if sel == nil {
		for i, c := range comb[:n] {
			g := table[c]
			groups[i] = g - 1
			found &= min(g, 1)
		}
		return found == 0
	}
	for _, i := range sel[:n] {
		g := table[comb[i]]
		groups[i] = g - 1
		found &= min(g, 1)
	}
	return found == 0
}

// SelCodeIn selects live i whose code is a member, member[codes[i]]: a
// predicate over a dictionary, judged once per entry.
func SelCodeIn(res []int32, codes []uint8, member *[256]bool, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i, c := range codes[:n] {
			res[k] = int32(i)
			k += b2i(member[c])
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += b2i(member[codes[i]])
	}
	return k
}

// CompactCodes writes dst[k] = dict[codes[sel[k]]] for k in [0, n), or
// dict[codes[k]] when sel is nil: compaction of a coded vector's live
// rows into values, read through the dictionary.
func CompactCodes[T any](dst []T, codes []uint8, dict []T, sel []int32, n int) {
	if sel == nil {
		for k, c := range codes[:n] {
			dst[k] = dict[c]
		}
		return
	}
	for k, i := range sel[:n] {
		dst[k] = dict[codes[i]]
	}
}

// MapCodes writes dst[i] = dict[codes[i]] for live i: a coded vector's
// live rows read through the dictionary into the same slots of dst.
func MapCodes[T any](dst []T, codes []uint8, dict []T, sel []int32, n int) {
	if sel == nil {
		for i, c := range codes[:n] {
			dst[i] = dict[c]
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = dict[codes[i]]
	}
}

// SumCodes is ReduceSum over a coded DOUBLE's live rows, each read
// through the dictionary: the same four lanes, so the same rounding.
func SumCodes(codes []uint8, dict []float64, sel []int32, n int) float64 {
	var s0, s1, s2, s3 float64
	if sel == nil {
		codes = codes[:n]
		for ; len(codes) >= 4; codes = codes[4:] {
			s0 += dict[codes[0]]
			s1 += dict[codes[1]]
			s2 += dict[codes[2]]
			s3 += dict[codes[3]]
		}
		for _, c := range codes {
			s0 += dict[c]
		}
		return (s0 + s1) + (s2 + s3)
	}
	for sel = sel[:n]; len(sel) >= 4; sel = sel[4:] {
		s0 += dict[codes[sel[0]]]
		s1 += dict[codes[sel[1]]]
		s2 += dict[codes[sel[2]]]
		s3 += dict[codes[sel[3]]]
	}
	for _, i := range sel {
		s0 += dict[codes[i]]
	}
	return (s0 + s1) + (s2 + s3)
}

// AggSumCodes is AggSum over a coded DOUBLE's live rows, each read
// through the dictionary in row order.
func AggSumCodes(acc []float64, groups []uint32, codes []uint8, dict []float64, sel []int32, n int) {
	if sel == nil {
		for i, c := range codes[:n] {
			acc[groups[i]] += dict[c]
		}
		return
	}
	for _, i := range sel[:n] {
		acc[groups[i]] += dict[codes[i]]
	}
}

// MinMaxI64 returns the least and greatest of vals' live rows (n ≥ 1):
// the range an integer group key's codes (key − lo) span in one batch.
func MinMaxI64(vals []int64, sel []int32, n int) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	if sel == nil {
		for _, v := range vals[:n] {
			lo, hi = min(lo, v), max(hi, v)
		}
		return lo, hi
	}
	for _, i := range sel[:n] {
		v := vals[i]
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// MapAddOffsets adds (vals[i]−base)*stride to dst[i] for live i: an
// integer key's part of a combined code, its value's offset in a window
// [base, base+width) that holds every live value, width·stride ≤ 65536.
func MapAddOffsets(dst []uint16, vals []int64, base int64, stride uint16, sel []int32, n int) {
	if sel == nil {
		for i, v := range vals[:n] {
			dst[i] += uint16(v-base) * stride
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] += uint16(vals[i]-base) * stride
	}
}

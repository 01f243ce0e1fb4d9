package primitives

import "math"

// Dictionary-code kernels. A VARCHAR vector read from a dictionary-coded
// chunk holds each row's one-byte code and the dictionary instead of a
// string per row (vector.Vector.Codes), and grouping and predicates work
// on the codes: the Vectorwise storage layer's processing on compressed
// data. A
// BIGINT or DATE group key whose batch spans a small range codes each
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
// VARCHAR predicate over a dictionary, judged once per entry.
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
// rows into strings, read through the dictionary.
func CompactCodes(dst []string, codes []uint8, dict []string, sel []int32, n int) {
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

package xcompile

import (
	"math"

	"vectorwise/internal/algebra"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// Data skipping: a ScanNode's pushed filters become one storage.Skip that
// tests each group's chunk min/max before anything is decompressed — the
// paper's "small materialized aggregates" — and binary-searches a sorted
// chunk to the row range the filters keep. It is read at compile time,
// after BindParams on the plan-cache path, so a cached parametrized plan
// skips with its own bound values. Statistics and order describe the
// stable image only: under deltas the scan also asks whether a Mod of a
// column the Skip reads lands in the group (core.ScanOpts.SkipCols).

// skipOf makes a scan's filters a Skip, or nil when none can cut a row
// group, and returns the table columns it reads; cols maps scan-output
// positions to table columns, and ivs are the filters' per-column
// intervals (algebra.ReadConjunction), those of unknown value left out.
// A group skips when one column's interval refutes its min/max. The
// search is of the first BIGINT or DATE column whose interval bounds it
// from above or below, of a table holding a Sorted chunk of it; the
// filters keep running over the rows it keeps. An interval of a column
// past cols (the row id) is not read. ivs are shared with the filters'
// compile (compiler.and) and not written.
func skipOf(tbl *storage.Table, cols []int, ivs []algebra.ColInterval) (*storage.Skip, pdt.ColSet) {
	var read pdt.ColSet
	for i := range ivs {
		if ivs[i].Col.Idx < len(cols) {
			read = read.With(cols[ivs[i].Col.Idx])
		}
	}
	if read == 0 {
		return nil, 0
	}
	sk := &storage.Skip{Col: -1, Refute: func(grp *storage.GroupMeta) bool {
		for i := range ivs {
			iv := &ivs[i]
			if iv.Col.Idx >= len(cols) {
				continue
			}
			cm := &grp.Cols[cols[iv.Col.Idx]]
			min := vtypes.Value{Kind: iv.Col.K, I64: cm.MinI64, F64: cm.MinF64, Str: cm.MinStr}
			max := vtypes.Value{Kind: iv.Col.K, I64: cm.MaxI64, F64: cm.MaxF64, Str: cm.MaxStr}
			if cm.HasStats && iv.Refutes(&min, &max) {
				return true
			}
		}
		return false
	}}
	for i := range ivs {
		iv := &ivs[i]
		if iv.Col.Idx < len(cols) && iv.Col.K.StorageClass() == vtypes.ClassI64 && iv.In == nil && (iv.Lo.Set || iv.Hi.Set) && anySorted(tbl, cols[iv.Col.Idx]) {
			sk.Col = iv.Col.Idx
			sk.Lo, sk.Hi = closedRange(&iv.Interval)
			break
		}
	}
	return sk, read
}

// anySorted reports whether some row group's chunk of table column c is
// Sorted.
func anySorted(tbl *storage.Table, c int) bool {
	for g := range tbl.Meta.Groups {
		if tbl.Meta.Groups[g].Cols[c].Sorted {
			return true
		}
	}
	return false
}

// closedRange returns the BIGINT or DATE values iv admits as a closed
// range [lo, hi]. ReadInterval closes every strict end but one after
// MaxInt64 or before MinInt64, which admits no value (lo > hi).
func closedRange(iv *algebra.Interval) (lo, hi int64) {
	if iv.Lo.Open || iv.Hi.Open {
		return 1, 0
	}
	lo, hi = math.MinInt64, math.MaxInt64
	if iv.Lo.Set {
		lo = iv.Lo.Val.I64
	}
	if iv.Hi.Set {
		hi = iv.Hi.Val.I64
	}
	return lo, hi
}

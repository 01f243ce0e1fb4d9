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

// skipOf reads a scan's filters once into a Skip, or nil when none can
// cut a row group, and the table columns it reads; cols maps scan-output
// positions to table columns. Each column's filters are intersected into
// one algebra.Interval, leaving out those of unknown value. A group skips
// when one column's interval refutes its min/max. The search is of the
// first BIGINT or DATE column whose interval bounds it from above or
// below, of a table holding a Sorted chunk of it; the filters keep
// running over the rows it keeps.
func skipOf(tbl *storage.Table, cols []int, filters []algebra.Scalar) (*storage.Skip, pdt.ColSet) {
	var (
		ivs  []algebra.Interval
		read pdt.ColSet
	)
next:
	for _, f := range filters {
		iv, ok := algebra.ReadInterval(f)
		if !ok || iv.Unknown || iv.Col.Idx >= len(cols) {
			continue
		}
		for i := range ivs {
			if ivs[i].Col.Idx == iv.Col.Idx {
				ivs[i].Intersect(&iv)
				continue next
			}
		}
		ivs, read = append(ivs, iv), read.With(cols[iv.Col.Idx])
	}
	if ivs == nil {
		return nil, 0
	}
	sk := &storage.Skip{Col: -1, Refute: func(grp *storage.GroupMeta) bool {
		for i := range ivs {
			iv := &ivs[i]
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
		if iv.Col.K.StorageClass() == vtypes.ClassI64 && iv.In == nil && (iv.Lo.Set || iv.Hi.Set) && anySorted(tbl, cols[iv.Col.Idx]) {
			sk.Col = iv.Col.Idx
			sk.Lo, sk.Hi = closedRange(iv)
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

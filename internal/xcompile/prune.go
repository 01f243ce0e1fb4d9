package xcompile

import (
	"math/bits"

	"vectorwise/internal/algebra"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// Row-group prune synthesis: a ScanNode's pushed filters become a
// storage.PruneFn that tests each group's chunk min/max before anything
// is decompressed — the paper's "small materialized aggregates". It runs
// at compile time, after BindParams on the plan-cache path, so a cached
// parametrized plan prunes with its own bound values. Statistics describe
// the stable image only: under deltas the scan also asks whether a Mod of
// a column the refuting filters read lands in the group (ScanOpts.PruneCols).

// synthesizePrune derives a PruneFn from a scan's filters, or nil when
// none can refute a group, and the table columns the refutable filters
// read; cols maps scan-output positions to table columns. A group skips
// when one column's intersected filters (algebra.Interval) refute its
// min/max. Each group re-reads the filters, so a compile keeps nothing
// but the closure. later marks a refutable filter on a column an earlier
// one reads: a group reads it only to intersect it into that one.
// Filters and columns from the 64th on shift out of the masks and are
// tested on their own.
func synthesizePrune(cols []int, filters []algebra.Scalar) (storage.PruneFn, pdt.ColSet) {
	var (
		read        pdt.ColSet
		seen, later uint64
	)
	for i, f := range filters {
		if iv, ok := refutable(cols, f); ok {
			read = read.With(cols[iv.Col.Idx])
			if seen>>iv.Col.Idx&1 != 0 {
				later |= 1 << i
			}
			seen |= 1 << iv.Col.Idx
		}
	}
	if read == 0 {
		return nil, 0
	}
	return func(_ int, grp *storage.GroupMeta) bool {
		for i, f := range filters {
			if later>>i&1 != 0 {
				continue
			}
			iv, ok := refutable(cols, f)
			if !ok {
				continue
			}
			for m := later >> (i + 1) << (i + 1); m != 0; m &= m - 1 {
				if jv, _ := algebra.ReadInterval(filters[bits.TrailingZeros64(m)]); jv.Col.Idx == iv.Col.Idx {
					iv.Intersect(&jv)
				}
			}
			cm := &grp.Cols[cols[iv.Col.Idx]]
			min := vtypes.Value{Kind: iv.Col.K, I64: cm.MinI64, F64: cm.MinF64, Str: cm.MinStr}
			max := vtypes.Value{Kind: iv.Col.K, I64: cm.MaxI64, F64: cm.MaxF64, Str: cm.MaxStr}
			if cm.HasStats && iv.Refutes(&min, &max) {
				return true
			}
		}
		return false
	}, read
}

// refutable reads f as an interval that can refute a row group.
func refutable(cols []int, f algebra.Scalar) (algebra.Interval, bool) {
	iv, ok := algebra.ReadInterval(f)
	return iv, ok && !iv.Unknown && iv.Col.Idx < len(cols)
}

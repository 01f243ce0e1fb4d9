package primitives

// Aggregation kernels update accumulator arrays addressed by per-row
// group ids, the X100 pattern for vectorized grouped aggregation: the
// hash-aggregate operator first translates each live row to a dense
// group id, then fires one Agg* kernel per aggregate function.

// AggSum adds vals into acc at the rows' group ids.
func AggSum[T Number](acc []T, groups []uint32, vals []T, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			acc[groups[i]] += vals[i]
		}
		return
	}
	for _, i := range sel[:n] {
		acc[groups[i]] += vals[i]
	}
}

// AggCount increments counters at the rows' group ids.
func AggCount(acc []int64, groups []uint32, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			acc[groups[i]]++
		}
		return
	}
	for _, i := range sel[:n] {
		acc[groups[i]]++
	}
}

// AggMin lowers acc to vals where smaller. seen tracks initialization
// (first value always wins).
func AggMin[T Ordered](acc []T, seen []bool, groups []uint32, vals []T, sel []int32, n int) {
	upd := func(i int32) {
		g := groups[i]
		if !seen[g] || vals[i] < acc[g] {
			acc[g] = vals[i]
			seen[g] = true
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			upd(int32(i))
		}
		return
	}
	for _, i := range sel[:n] {
		upd(i)
	}
}

// AggMax raises acc to vals where larger.
func AggMax[T Ordered](acc []T, seen []bool, groups []uint32, vals []T, sel []int32, n int) {
	upd := func(i int32) {
		g := groups[i]
		if !seen[g] || vals[i] > acc[g] {
			acc[g] = vals[i]
			seen[g] = true
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			upd(int32(i))
		}
		return
	}
	for _, i := range sel[:n] {
		upd(i)
	}
}

// Reduction kernels: whole-vector aggregates without grouping, used by
// ungrouped aggregation (e.g. TPC-H Q6) where no group-id indirection is
// needed at all.

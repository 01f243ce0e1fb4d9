package primitives

// Aggregation kernels update accumulator arrays addressed by per-row
// group ids, the X100 pattern for vectorized grouped aggregation: the
// hash-aggregate operator first translates each live row to a dense
// group id, then fires one Agg* kernel per accumulator.

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

// Reduction kernels aggregate a run of rows without group ids: ungrouped
// aggregation (e.g. TPC-H Q6) reduces a batch's live rows, and grouped
// aggregation over few groups reduces each group's run of a batch
// PartitionGroups has ordered. The Agg* kernels above serialize on the
// store to an accumulator slot when many rows share a group; a reduction
// keeps four independent partial results in registers instead.

// ReduceSum returns the sum of the live vals.
func ReduceSum[T Number](vals []T, sel []int32, n int) T {
	var s0, s1, s2, s3 T
	if sel == nil {
		vals = vals[:n]
		for ; len(vals) >= 4; vals = vals[4:] {
			s0 += vals[0]
			s1 += vals[1]
			s2 += vals[2]
			s3 += vals[3]
		}
		for _, v := range vals {
			s0 += v
		}
		return (s0 + s1) + (s2 + s3)
	}
	for sel = sel[:n]; len(sel) >= 4; sel = sel[4:] {
		s0 += vals[sel[0]]
		s1 += vals[sel[1]]
		s2 += vals[sel[2]]
		s3 += vals[sel[3]]
	}
	for _, i := range sel {
		s0 += vals[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// PartitionLanes is how many interleaved streams of rows PartitionGroups
// counts and places with counters of their own: consecutive rows of one
// group then update different counters instead of each waiting on the
// store of the row before.
const PartitionLanes = 4

// PartitionGroups counting-sorts the live rows by group id, for ids below
// numGroups: afterwards the rows of group g are part[offs[g]:offs[g+1]],
// ascending within each lane. offs needs PartitionLanes*numGroups entries,
// the ones past numGroups+1 scratch; part has room for n rows.
func PartitionGroups(part, offs []int32, groups []uint32, numGroups int, sel []int32, n int) {
	const lanes = PartitionLanes
	cur := offs[:lanes*numGroups] // live row k of group g counts in cur[g*lanes+k%lanes]
	clear(cur)
	if sel == nil {
		for k, g := range groups[:n] {
			cur[int(g)*lanes+k&(lanes-1)]++
		}
	} else {
		for k, i := range sel[:n] {
			cur[int(groups[i])*lanes+k&(lanes-1)]++
		}
	}
	start := int32(0)
	for j, c := range cur {
		cur[j], start = start, start+c
	}
	if sel == nil {
		for k, g := range groups[:n] {
			j := int(g)*lanes + k&(lanes-1)
			part[cur[j]] = int32(k)
			cur[j]++
		}
	} else {
		for k, i := range sel[:n] {
			j := int(groups[i])*lanes + k&(lanes-1)
			part[cur[j]] = i
			cur[j]++
		}
	}
	// The last lane's counter of group g now ends the group. Moving these
	// ends to the front reads each one before anything overwrites it.
	for g := range numGroups {
		offs[g+1] = cur[g*lanes+lanes-1]
	}
	offs[0] = 0
}

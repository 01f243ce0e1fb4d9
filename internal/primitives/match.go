package primitives

// Join and ordered-key kernels. Both run without a branch on the data,
// like the ordering selections in compare.go: every live row is stored
// and the output cursor advances by a 0 or a 1, so a probe's hit rate or
// a key's run lengths do not decide how often the branch predictor misses.

// Keep is a join type's rule for which probe rows SelMatches keeps, as a
// bit per outcome: KeepHits for a row whose key found a build row,
// KeepMisses for one whose key did not.
type Keep uint8

// Keep rules: inner and semi joins keep hits, anti joins misses, and left
// outer joins every row.
const (
	KeepHits   Keep = 1
	KeepMisses Keep = 2
	KeepAll         = KeepHits | KeepMisses
)

// SelMatches compacts a probe vector's lookup results. kids[i] is live row
// i's match, a build row or key id, or -1 for a miss. For each live row
// the rule keeps, in order, it stores the row in res and its match in ids,
// and it returns how many it stored. res and ids need n slots; ids may
// be kids itself (k never passes the read position).
func SelMatches(res, ids, kids []int32, keep Keep, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i, kid := range kids[:n] {
			res[k], ids[k] = int32(i), kid
			k += int(keep>>(uint32(kid)>>31)) & 1
		}
		return k
	}
	for _, i := range sel[:n] {
		kid := kids[i]
		res[k], ids[k] = i, kid
		k += int(keep>>(uint32(kid)>>31)) & 1
	}
	return k
}

// RunIDs numbers the runs of keys, a column that must not decrease, over
// the live rows sel[:n]. run is the id of the run open before the batch
// and last its key; a live row whose key differs from the previous live
// row's (last, for the first) opens run+1, and with open the first live
// row opens one whatever its key. ids[i] gets row i's run. The rows that
// open runs go to starts, in order, and their count is returned, with
// whether some key is below the one before it; ids and starts are then
// written but mean nothing. starts needs n slots.
func RunIDs(ids []uint32, starts []int32, keys []int64, last int64, run uint32, open bool, sel []int32, n int) (m int, unordered bool) {
	first, bad := b2i(open), 0
	if sel == nil {
		for i, key := range keys[:n] {
			nw := b2i(key != last) | first
			bad |= b2i(key < last)
			run += uint32(nw)
			ids[i], starts[m] = run, int32(i)
			m += nw
			last, first = key, 0
		}
		return m, bad != 0
	}
	for _, i := range sel[:n] {
		key := keys[i]
		nw := b2i(key != last) | first
		bad |= b2i(key < last)
		run += uint32(nw)
		ids[i], starts[m] = run, i
		m += nw
		last, first = key, 0
	}
	return m, bad != 0
}

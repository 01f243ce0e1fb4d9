package primitives

// Join and ordered-key kernels. SelMatches and RunIDs run
// without a branch on the data, like the ordering selections in
// compare.go: every live row is stored and the output cursor advances by
// a 0 or a 1, so a probe's hit rate or a key's run lengths do not decide
// how often the branch predictor misses. MergeHits does not touch every
// live row: it branches once per build key it passes and once per hit,
// and its searches halve without a branch.

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
// open runs go to starts, in order, and their count is returned. starts
// needs n slots. The order is the caller's to vouch for: over keys that
// decrease, a key seen before opens a second run.
func RunIDs(ids []uint32, starts []int32, keys []int64, last int64, run uint32, open bool, sel []int32, n int) (m int) {
	first := b2i(open)
	if sel == nil {
		for i, key := range keys[:n] {
			nw := b2i(key != last) | first
			run += uint32(nw)
			ids[i], starts[m] = run, int32(i)
			m += nw
			last, first = key, 0
		}
		return m
	}
	for _, i := range sel[:n] {
		key := keys[i]
		nw := b2i(key != last) | first
		run += uint32(nw)
		ids[i], starts[m] = run, i
		m += nw
		last, first = key, 0
	}
	return m
}

// MergeHits merges the live probe rows sel[k:n] (rows k to n-1 with sel
// nil), whose keys must not decrease, with one ascending build chunk
// build[c:], whose key at position p is build key (or row) base+p. For
// each build key it gallops the probe cursor k to the first row whose key
// is at least that key; a probe key above the build key gallops c forward
// to the first build key at least the probe key instead. So its work
// grows with the build keys and the hits, not with the probe rows it
// passes over, and a gallop lands c on the first position of a key. The
// rows of each run equal to build[c] go, with id base+c, to the compacted
// lists rows[w:] and ids[w:] (rows may be sel itself: w never passes the
// read position); with rows nil each hit's id goes to ids at the row's
// own position instead, and misses are left as they were. It returns w
// and both cursors, stopping when either side is exhausted; c stays on a
// key that probe rows matched, so a run that goes on in the next probe
// batch finds it again.
func MergeHits(rows, ids []int32, w int, keys []int64, sel []int32, k, n int, build []int64, c int, base int32) (int, int, int) {
	for k < n && c < len(build) {
		bk := build[c]
		if k = gallop(keys, sel, k, n, bk); k == n {
			break
		}
		pk := keys[rowAt(sel, k)]
		if pk == bk {
			id := base + int32(c)
			for ; pk == bk; pk = keys[rowAt(sel, k)] {
				if i := rowAt(sel, k); rows == nil {
					ids[i] = id
				} else {
					rows[w], ids[w] = i, id
					w++
				}
				if k++; k == n {
					return w, k, c
				}
			}
		}
		c = gallop(build, nil, c+1, len(build), pk)
	}
	return w, k, c
}

// gallop returns the first position p of [lo, hi) whose key, keys[sel[p]]
// (keys[p] with sel nil), is at least x, or hi; the keys over [lo, hi)
// must not decrease. It doubles a step from lo until a key reaches x, then
// halves the last step back without a branch, so it reads about
// 2·log2(p−lo) keys whatever hi−lo is.
func gallop(keys []int64, sel []int32, lo, hi int, x int64) int {
	if lo >= hi || keys[rowAt(sel, lo)] >= x {
		return lo
	}
	step := 1
	for lo+step < hi && keys[rowAt(sel, lo+step)] < x {
		lo += step
		step <<= 1
	}
	// The key at lo is below x; the answer is in (lo, lo+m].
	for m := min(lo+step, hi) - lo; m > 1; {
		half := m >> 1
		lo += half & -b2i(keys[rowAt(sel, lo+half)] < x)
		m -= half
	}
	return lo + 1
}

// rowAt is the position of live row p under sel (nil: dense).
func rowAt(sel []int32, p int) int32 {
	if sel == nil {
		return int32(p)
	}
	return sel[p]
}

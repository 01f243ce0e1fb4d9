package primitives

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomSel returns nil (dense) or an ascending subset of [0, n) keeping
// about pct % of the rows, and its length.
func randomSel(rng *rand.Rand, n, pct int) ([]int32, int) {
	if pct >= 100 {
		return nil, n
	}
	var sel []int32
	for i := 0; i < n; i++ {
		if rng.Intn(100) < pct {
			sel = append(sel, int32(i))
		}
	}
	return sel, len(sel)
}

func liveRows(sel []int32, n int) []int32 {
	if sel != nil {
		return sel[:n]
	}
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// TestSelMatchesAgainstScalar compares SelMatches with a branching loop
// over random lookup results (-1 among build rows up to MaxInt32), dense
// and sparse, for every keep rule, with ids apart from kids and
// compacted into kids in place.
func TestSelMatchesAgainstScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		size, hitPct := rng.Intn(1100), []int{0, 3, 50, 97, 100}[trial%5]
		kids := make([]int32, size)
		for i := range kids {
			kids[i] = -1
			if rng.Intn(100) < hitPct {
				kids[i] = []int32{0, 1, int32(rng.Intn(5000)), math.MaxInt32}[rng.Intn(4)]
			}
		}
		sel, n := randomSel(rng, size, []int{100, 60, 5}[trial%3])
		for _, keep := range []Keep{KeepHits, KeepMisses, KeepAll} {
			var wantRes, wantIDs []int32
			for _, i := range liveRows(sel, n) {
				if hit := kids[i] >= 0; hit && keep&KeepHits != 0 || !hit && keep&KeepMisses != 0 {
					wantRes, wantIDs = append(wantRes, i), append(wantIDs, kids[i])
				}
			}
			res, ids := make([]int32, size), make([]int32, size)
			k := SelMatches(res, ids, kids, keep, sel, n)
			if !slices.Equal(res[:k], wantRes) || !slices.Equal(ids[:k], wantIDs) {
				t.Fatalf("trial %d keep %d: got %v %v, want %v %v", trial, keep, res[:k], ids[:k], wantRes, wantIDs)
			}
			inPlace := slices.Clone(kids)
			if k := SelMatches(res, inPlace, inPlace, keep, sel, n); !slices.Equal(res[:k], wantRes) || !slices.Equal(inPlace[:k], wantIDs) {
				t.Fatalf("trial %d keep %d in place: got %v %v, want %v %v", trial, keep, res[:k], inPlace[:k], wantRes, wantIDs)
			}
		}
	}
}

// runIDsScalar is RunIDs as a branching loop: a row opens a run when none
// is open or its key differs from the last.
func runIDsScalar(ids []uint32, keys []int64, last int64, run uint32, open bool, rows []int32) (starts []int32) {
	for _, i := range rows {
		if key := keys[i]; open || key != last {
			run, open, last = run+1, false, key
			starts = append(starts, i)
		}
		ids[i] = run
	}
	return starts
}

// TestRunIDsAgainstScalar compares RunIDs with runIDsScalar over random
// never-decreasing keys (runs of 1 to 8, MinInt64 and MaxInt64 among
// them), dense and sparse, with a run open before the batch or not.
func TestRunIDsAgainstScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 400; trial++ {
		size := 1 + rng.Intn(1100)
		keys := make([]int64, size)
		key := []int64{math.MinInt64, -3, 0, math.MaxInt64 - 2000}[trial%4]
		for i := range keys {
			if rng.Intn(1+trial%8) == 0 && key < math.MaxInt64-3 {
				key += 1 + rng.Int63n(3)
			}
			keys[i] = key
		}
		sel, n := randomSel(rng, size, []int{100, 50, 10}[trial%3])
		if n == 0 {
			continue
		}
		rows := liveRows(sel, n)
		last, run, open := keys[rows[0]], uint32(rng.Intn(100)), trial%2 == 0
		if open {
			last, run = []int64{math.MinInt64, keys[rows[0]]}[trial/2%2], math.MaxUint32
		}
		want := make([]uint32, size)
		wantStarts := runIDsScalar(want, keys, last, run, open, rows)
		ids, starts := make([]uint32, size), make([]int32, size)
		m := RunIDs(ids, starts, keys, last, run, open, sel, n)
		for _, i := range rows {
			if ids[i] != want[i] {
				t.Fatalf("trial %d: row %d in run %d, want %d", trial, i, ids[i], want[i])
			}
		}
		if !slices.Equal(starts[:m], wantStarts) {
			t.Fatalf("trial %d: runs open at %v, want %v", trial, starts[:m], wantStarts)
		}
	}
}

// TestRunIDsEdges: a first key of MinInt64 opens a run only when none is
// open, and a lower key under a dead row opens none.
func TestRunIDsEdges(t *testing.T) {
	const minI = math.MinInt64
	for _, c := range []struct {
		keys []int64
		sel  []int32
		last int64
		open bool
		ids  []uint32
	}{
		{keys: i64s(minI, minI, 4), last: minI, open: true, ids: []uint32{0, 0, 1}},
		{keys: i64s(minI, minI, 4), last: minI, ids: []uint32{math.MaxUint32, math.MaxUint32, 0}},
		{keys: i64s(3, 1, 5, 5), sel: []int32{0, 2, 3}, last: 3, ids: []uint32{math.MaxUint32, 0, 0, 0}},
	} {
		n := len(c.keys)
		if c.sel != nil {
			n = len(c.sel)
		}
		ids, starts := make([]uint32, len(c.keys)), make([]int32, len(c.keys))
		RunIDs(ids, starts, c.keys, c.last, math.MaxUint32, c.open, c.sel, n)
		if !slices.Equal(ids, c.ids) {
			t.Fatalf("%v under %v after %d (open %v): ids %v, want %v", c.keys, c.sel, c.last, c.open, ids, c.ids)
		}
	}
}

// mergeHitsScalar is MergeHits as the plain two-cursor loop: each live row
// of rows moves the build cursor c to the first key at least its own, and
// is a hit, with id base+c, when that key equals it.
func mergeHitsScalar(keys []int64, rows []int32, build []int64, c int, base int32) (hits, ids []int32, end int) {
	for _, i := range rows {
		for c < len(build) && build[c] < keys[i] {
			c++
		}
		if c < len(build) && build[c] == keys[i] {
			hits, ids = append(hits, i), append(ids, base+int32(c))
		}
	}
	return hits, ids, c
}

// sortedKeys returns n ascending keys drawn from [lo, lo+width], each end
// itself among them when ends is set, so runs of equal keys open and
// close the slice.
func sortedKeys(rng *rand.Rand, n int, lo, width int64, ends bool) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = lo + rng.Int63n(width) + rng.Int63n(2)
	}
	if ends && n > 1 {
		keys[0], keys[n-1] = lo, lo+width
	}
	slices.Sort(keys)
	return keys
}

// TestMergeHitsAgainstScalar compares MergeHits with mergeHitsScalar over
// random ascending probe keys, dense and sparse, and build chunks with
// repeated keys: keys over the whole int64 range (MinInt64 and MaxInt64
// among them), windows narrow enough that most rows hit and wide enough
// that almost none do, a probe wholly below or above the build, and both
// cursors starting anywhere. Hits are checked compacted, compacted into
// sel itself, and scattered to their rows.
func TestMergeHitsAgainstScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 1200; trial++ {
		width := []int64{1, 20, 3000, 1 << 40, math.MaxInt64}[trial%5]
		lo := []int64{math.MinInt64, -width / 2, math.MaxInt64 - width}[trial/5%3]
		if width == math.MaxInt64 {
			lo = []int64{math.MinInt64, -1}[trial/5%2]
		}
		size, bsize := rng.Intn(1100), 1+rng.Intn(3000)
		pLo, pWidth, bLo, bWidth := lo, width, lo, width
		switch trial / 15 % 3 {
		case 1: // probe below the build
			pWidth, bLo, bWidth = width/2, lo+width/2+1, width/2
		case 2: // probe above it
			pLo, pWidth, bWidth = lo+width/2+1, width/2, width/2
		}
		keys := sortedKeys(rng, size, pLo, max(pWidth, 1), trial%2 == 0)
		build := sortedKeys(rng, bsize, bLo, max(bWidth, 1), trial%4 < 2)
		sel, n := randomSel(rng, size, []int{100, 60, 4}[trial%3])
		live := liveRows(sel, n)
		k0, c0, base := rng.Intn(n+1), rng.Intn(bsize+1), rng.Int31n(1<<20)
		wantHits, wantIDs, wantC := mergeHitsScalar(keys, live[k0:], build, c0, base)

		rows, ids := make([]int32, size), make([]int32, size)
		w, k, c := MergeHits(rows, ids, 0, keys, sel, k0, n, build, c0, base)
		if !slices.Equal(rows[:w], wantHits) || !slices.Equal(ids[:w], wantIDs) {
			t.Fatalf("trial %d: hits %v ids %v, want %v %v", trial, rows[:w], ids[:w], wantHits, wantIDs)
		}
		if c != wantC || k != n && c != bsize {
			t.Fatalf("trial %d: cursors k=%d/%d c=%d/%d, want c=%d and k at the end unless c is", trial, k, n, c, bsize, wantC)
		}
		if sel != nil {
			inPlace := slices.Clone(sel)
			if w, _, _ := MergeHits(inPlace, ids, 0, keys, inPlace, k0, n, build, c0, base); !slices.Equal(inPlace[:w], wantHits) || !slices.Equal(ids[:w], wantIDs) {
				t.Fatalf("trial %d: compacted into sel %v %v, want %v %v", trial, inPlace[:w], ids[:w], wantHits, wantIDs)
			}
		}
		scattered, want := slices.Repeat([]int32{-7}, size), slices.Repeat([]int32{-7}, size)
		for h, i := range wantHits {
			want[i] = wantIDs[h]
		}
		if _, k, c := MergeHits(nil, scattered, 0, keys, sel, k0, n, build, c0, base); !slices.Equal(scattered, want) || c != wantC || k != n && c != bsize {
			t.Fatalf("trial %d: scattered %v (k=%d c=%d), want %v (c=%d)", trial, scattered, k, c, want, wantC)
		}

	}
}

// BenchmarkSelMatches compacts 1 024-row probe vectors at half hits
// under each keep rule (ns/tuple).
func BenchmarkSelMatches(b *testing.B) {
	const n, vecs = 1024, 64
	rng := rand.New(rand.NewSource(5))
	kids := make([]int32, n*vecs)
	for i := range kids {
		kids[i] = -1
		if rng.Intn(2) == 0 {
			kids[i] = int32(rng.Intn(1 << 20))
		}
	}
	res, ids := make([]int32, n), make([]int32, n)
	for _, keep := range []Keep{KeepHits, KeepMisses, KeepAll} {
		b.Run(fmt.Sprintf("keep=%d", keep), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := i % vecs * n
				benchSink += SelMatches(res, ids, kids[o:o+n], keep, nil, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
		})
	}
}

// BenchmarkRunIDs numbers the runs of 1 024-row vectors of an ordered key
// whose runs average 1, 4 and 64 rows (ns/tuple).
func BenchmarkRunIDs(b *testing.B) {
	const n, vecs = 1024, 64
	for _, runLen := range []int{1, 4, 64} {
		rng := rand.New(rand.NewSource(int64(runLen)))
		keys, key := make([]int64, n*vecs), int64(0)
		for i := range keys {
			if rng.Intn(runLen) == 0 {
				key++
			}
			keys[i] = key
		}
		ids, starts := make([]uint32, n), make([]int32, n)
		b.Run(fmt.Sprintf("run=%d", runLen), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := i % vecs * n
				m := RunIDs(ids, starts, keys[o:o+n], keys[max(o-1, 0)], 0, o == 0, nil, n)
				benchSink += m
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
		})
	}
}

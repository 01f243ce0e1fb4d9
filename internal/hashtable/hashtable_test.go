package hashtable

import (
	"math/rand"
	"testing"
)

// tableHarness pairs a Table with columnar key storage (payload i holds
// key store[i]) and a map oracle, so every batch result can be checked
// row-for-row against what a map[int64] would have said.
type tableHarness struct {
	t      *Table
	hashFn func(int64) uint64
	store  []int64          // payload -> key
	oracle map[int64]uint32 // key -> expected payload
}

func newHarness(hashFn func(int64) uint64) *tableHarness {
	return &tableHarness{t: New(0), hashFn: hashFn, oracle: map[int64]uint32{}}
}

// splitmix64 is the engine's scalar hash finisher.
func splitmix64(x int64) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// findOrInsert runs one FindOrInsert batch and cross-checks it against
// the oracle (which it updates in first-occurrence order, exactly as
// the table contract promises alloc is called).
func (h *tableHarness) findOrInsert(t *testing.T, keys []int64, sel []int32, n int) {
	t.Helper()
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = h.hashFn(k)
	}
	out := make([]uint32, len(keys))
	eq := func(rows []int32, vals []uint32, miss []bool, nc int) {
		for j := 0; j < nc; j++ {
			if !miss[j] && h.store[vals[j]] != keys[rows[j]] {
				miss[j] = true
			}
		}
	}
	// alloc must fire exactly once per distinct new key (allocation
	// order across different keys is not batch order: see NewFn).
	allocedThisBatch := map[int64]bool{}
	alloc := func(row int32) uint32 {
		k := keys[row]
		if _, existed := h.oracle[k]; existed || allocedThisBatch[k] {
			t.Fatalf("alloc called twice for key %d", k)
		}
		allocedThisBatch[k] = true
		h.store = append(h.store, k)
		return uint32(len(h.store) - 1)
	}
	h.t.FindOrInsert(hashes, sel, n, out, eq, alloc)
	check := func(i int32) {
		k := keys[i]
		if int(out[i]) >= len(h.store) || h.store[out[i]] != k {
			t.Fatalf("FindOrInsert key %d at row %d: payload %d maps to wrong key", k, i, out[i])
		}
		if want, ok := h.oracle[k]; ok {
			if out[i] != want {
				t.Fatalf("FindOrInsert key %d at row %d: payload %d, oracle %d", k, i, out[i], want)
			}
		} else {
			if !allocedThisBatch[k] {
				t.Fatalf("new key %d at row %d resolved without alloc", k, i)
			}
			h.oracle[k] = out[i]
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			check(int32(i))
		}
	} else {
		for _, i := range sel[:n] {
			check(i)
		}
	}
	if h.t.Len() != len(h.oracle) {
		t.Fatalf("Len %d, oracle %d distinct keys", h.t.Len(), len(h.oracle))
	}
}

// find runs one Find batch and cross-checks hits and misses.
func (h *tableHarness) find(t *testing.T, keys []int64, sel []int32, n int) {
	t.Helper()
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = h.hashFn(k)
	}
	out := make([]int32, len(keys))
	eq := func(rows []int32, vals []uint32, miss []bool, nc int) {
		for j := 0; j < nc; j++ {
			if !miss[j] && h.store[vals[j]] != keys[rows[j]] {
				miss[j] = true
			}
		}
	}
	h.t.Find(hashes, sel, n, out, eq)
	check := func(i int32) {
		want, ok := h.oracle[keys[i]]
		switch {
		case !ok && out[i] != -1:
			t.Fatalf("Find absent key %d at row %d: payload %d, want -1", keys[i], i, out[i])
		case ok && out[i] != int32(want):
			t.Fatalf("Find key %d at row %d: payload %d, oracle %d", keys[i], i, out[i], want)
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			check(int32(i))
		}
	} else {
		for _, i := range sel[:n] {
			check(i)
		}
	}
}

// runProperty drives random insert/find batches (dense and selective)
// from a bounded key universe — small enough that duplicate keys, both
// across batches and within one batch, are the norm (the join
// build-side shape).
func runProperty(t *testing.T, hashFn func(int64) uint64, universe int64, rounds int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := newHarness(hashFn)
	for r := 0; r < rounds; r++ {
		n := 1 + rng.Intn(1024)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(universe)
		}
		var sel []int32
		if rng.Intn(3) == 0 {
			// A strictly increasing selection over a wider batch, the
			// shape filters upstream produce.
			wide := n + rng.Intn(256)
			wkeys := make([]int64, wide)
			for i := range wkeys {
				wkeys[i] = rng.Int63n(universe)
			}
			sel32 := make([]int32, n)
			ints := rng.Perm(wide)[:n:n]
			// keep selection sorted and unique
			seen := map[int]bool{}
			k := 0
			for _, v := range ints {
				if !seen[v] {
					seen[v] = true
					ints[k] = v
					k++
				}
			}
			ints = ints[:k]
			for i := 1; i < len(ints); i++ {
				for j := i; j > 0 && ints[j] < ints[j-1]; j-- {
					ints[j], ints[j-1] = ints[j-1], ints[j]
				}
			}
			sel32 = sel32[:len(ints)]
			for i, v := range ints {
				sel32[i] = int32(v)
			}
			keys, sel, n = wkeys, sel32, len(ints)
		}
		if rng.Intn(2) == 0 {
			h.findOrInsert(t, keys, sel, n)
		} else {
			h.find(t, keys, sel, n)
		}
	}
}

func TestTableVsOracle(t *testing.T) {
	runProperty(t, splitmix64, 1<<14, 200, 1)
}

// TestTableVsOracleSmallUniverse hammers duplicate keys: every batch is
// nearly all duplicates of a handful of distinct keys.
func TestTableVsOracleSmallUniverse(t *testing.T) {
	runProperty(t, splitmix64, 17, 100, 2)
}

// TestTableVsOracleAllColliding is the adversarial seed: every key
// hashes to the same value, so tags reject nothing
// and every distinct key resolves purely through the eq callback at
// ever-growing probe distances.
func TestTableVsOracleAllColliding(t *testing.T) {
	runProperty(t, func(int64) uint64 { return 0xdeadbeef }, 64, 30, 3)
}

// TestTableVsOracleFewHashClasses forces heavy partial collisions: two
// hash classes share tags, so eq must separate keys.
func TestTableVsOracleFewHashClasses(t *testing.T) {
	runProperty(t, func(k int64) uint64 { return uint64(k) & 3 }, 256, 50, 4)
}

// TestTableVsOracleSharedTags gives distinct keys hashes that agree in
// every bit an entry stores (the low 31) and differ only above them: the
// tag accepts all of them, so eq alone must keep the keys apart, through
// growth (which re-homes entries from their tags) as well.
func TestTableVsOracleSharedTags(t *testing.T) {
	runProperty(t, func(k int64) uint64 { return uint64(k)<<31 | uint64(k)&63 }, 1<<9, 100, 5)
}

// TestScalarPutGetVsOracle exercises the row-at-a-time entry points the
// reference engines use, across growth, against the same oracle.
func TestScalarPutGetVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := New(0)
	var store []int64
	oracle := map[int64]uint32{}
	for op := 0; op < 50000; op++ {
		k := rng.Int63n(5000)
		h := splitmix64(k)
		eq := func(v uint32) bool { return store[v] == k }
		if rng.Intn(2) == 0 {
			v, inserted := tb.Put(h, eq, func() uint32 {
				store = append(store, k)
				return uint32(len(store) - 1)
			})
			want, existed := oracle[k]
			if existed != !inserted {
				t.Fatalf("Put key %d: inserted=%v, oracle existed=%v", k, inserted, existed)
			}
			if !existed {
				oracle[k] = v
			} else if v != want {
				t.Fatalf("Put key %d: payload %d, oracle %d", k, v, want)
			}
		} else {
			v, ok := tb.Get(h, eq)
			want, existed := oracle[k]
			if ok != existed || (ok && v != want) {
				t.Fatalf("Get key %d: (%d,%v), oracle (%d,%v)", k, v, ok, want, existed)
			}
		}
	}
	if tb.Len() != len(oracle) {
		t.Fatalf("Len %d, oracle %d", tb.Len(), len(oracle))
	}
}

// TestGrowthPreservesEntries pins the rehash-free growth path: inserts
// far past several doublings keep every earlier entry findable.
func TestGrowthPreservesEntries(t *testing.T) {
	h := newHarness(splitmix64)
	keys := make([]int64, 1024)
	for round := 0; round < 40; round++ {
		for i := range keys {
			keys[i] = int64(round*len(keys) + i)
		}
		h.findOrInsert(t, keys, nil, len(keys))
	}
	st := h.t.Stats()
	if st.Resizes == 0 {
		t.Fatalf("expected directory growth, stats %+v", st)
	}
	if st.Entries != 40*1024 {
		t.Fatalf("entries %d, want %d", st.Entries, 40*1024)
	}
	// Every key from every round is still present.
	for round := 0; round < 40; round++ {
		for i := range keys {
			keys[i] = int64(round*len(keys) + i)
		}
		h.find(t, keys, nil, len(keys))
	}
}

// TestResetKeepsDirectory: a reset table finds none of its old keys and
// refills to the size it had without growing again — how an aggregate
// over an ordered key reuses one table between flushes.
func TestResetKeepsDirectory(t *testing.T) {
	h := newHarness(splitmix64)
	keys := make([]int64, 1024)
	grown := 0
	for round := range 3 {
		for i := range keys {
			keys[i] = int64(round*len(keys) + i)
		}
		h.findOrInsert(t, keys, nil, len(keys))
		full := h.t.Stats()
		if round == 0 {
			grown = full.Resizes
		} else if full.Resizes != grown {
			t.Fatalf("round %d: refilling a reset table grew it: %+v", round, full)
		}
		h.t.Reset()
		h.store, h.oracle = nil, map[int64]uint32{}
		h.find(t, keys, nil, len(keys)) // every key absent
		if st := h.t.Stats(); st.Entries != 0 || st.Slots != full.Slots {
			t.Fatalf("round %d: reset left %+v, had %+v", round, st, full)
		}
	}
}

// TestStatsShape sanity-checks the stats the operators surface.
func TestStatsShape(t *testing.T) {
	h := newHarness(splitmix64)
	keys := make([]int64, 512)
	for i := range keys {
		keys[i] = int64(i)
	}
	h.findOrInsert(t, keys, nil, len(keys))
	st := h.t.Stats()
	if st.Entries != 512 || st.Slots < 512 || st.Load <= 0 || st.Load > float64(loadNum)/float64(loadDen)+1e-9 {
		t.Fatalf("stats %+v", st)
	}
	if st.ProbeMax < st.ProbeP50 {
		t.Fatalf("probe max %d < p50 %d", st.ProbeMax, st.ProbeP50)
	}
}

// TestWrapAround homes every key on one of the directory's last three
// slots, whatever its size up to 2^16, so nearly every walk runs off the
// end and continues at slot 0. FindOrInsert batches draw keys from 0..39
// (same-batch duplicates throughout, new keys early on), Find batches from
// 0..59 (present and absent keys), dense and through a selection vector;
// once below gatherMinSlots and once above it, where a row must re-read a
// home slot its gathered snapshot showed empty.
func TestWrapAround(t *testing.T) {
	hash := func(k int64) uint64 { return uint64(0xfffd+k%3) | uint64(k)<<16 }
	for _, hint := range []int{0, 1 << 15} {
		h := newHarness(hash)
		h.t = New(hint)
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 40; round++ {
			insert := round%4 < 2
			keys := make([]int64, 32)
			for i := range keys {
				if insert {
					keys[i] = rng.Int63n(40)
				} else {
					keys[i] = rng.Int63n(60)
				}
			}
			var sel []int32
			n := len(keys)
			if round%2 == 1 {
				for i := 0; i < len(keys); i += 1 + i%2 {
					sel = append(sel, int32(i))
				}
				n = len(sel)
			}
			if insert {
				h.findOrInsert(t, keys, sel, n)
			} else {
				h.find(t, keys, sel, n)
			}
		}
		if len(h.oracle) != 40 || h.t.entries[0].tag == 0 || len(h.t.entries) < hint {
			t.Fatalf("New(%d): %d keys over %d slots, slot 0 tag %#x: the runs did not wrap",
				hint, len(h.oracle), len(h.t.entries), h.t.entries[0].tag)
		}
	}
}

// TestProbeStatsExact pins the numbers EXPLAIN ANALYZE, /v1/stats and the
// benchmark report (probe_p50, probe_max) on hand-placed collisions in a
// 64-slot table: every resolved op counts once, at the distance of the
// slot it resolved on from its home slot, including rows whose first
// candidate failed key verification and rows whose walk wraps past the
// last slot. Inserts go one row per batch so the layout is fixed:
//
//	slot  5: a   home 5                  inserted at distance 0
//	slot  6: b   home 5, a foreign tag   distance 1
//	slot  7: c   home 5, a's tag         distance 2 (fails against a first)
//	slot  8: d   home 6                  distance 2
//	slot 63: e   home 63                 distance 0
//	slot  0: f   home 63                 distance 1 (wraps)
//	slot 20: p   home 20                 distance 0
//	slot 21: q   home 20, p's tag        distance 1 (the slot right after p)
//
// A Find batch then resolves all eight again at the same distances, plus x
// (home 5, absent: walks to empty slot 9, distance 4) and y (home 5, a's
// and c's tag: fails against both, then misses at slot 9, distance 4).
func TestProbeStatsExact(t *testing.T) {
	hashOf := map[int64]uint64{
		'a': 5, 'b': 5 | 64, 'c': 5 | 1<<32, 'd': 6, 'e': 63, 'f': 63 | 64,
		'p': 20, 'q': 20 | 1<<32, 'x': 5 | 128, 'y': 5 | 2<<32,
	}
	h := newHarness(func(k int64) uint64 { return hashOf[k] })
	for _, k := range []int64{'a', 'b', 'c', 'd', 'e', 'f', 'p', 'q'} {
		h.findOrInsert(t, []int64{k}, nil, 1)
	}
	h.find(t, []int64{'a', 'b', 'c', 'd', 'e', 'f', 'p', 'q', 'x', 'y'}, nil, 10)
	want := [histSize]uint64{0: 6, 1: 6, 2: 4, 4: 2}
	if h.t.hist != want {
		t.Fatalf("probe histogram %v, want %v", h.t.hist[:8], want[:8])
	}
	var total uint64
	for _, c := range h.t.hist {
		total += c
	}
	if st := h.t.Stats(); total != 18 || st.ProbeP50 != 1 || st.ProbeMax != 4 || st.Slots != 64 {
		t.Fatalf("%d resolved ops, stats %+v; want 18 ops, p50 1, max 4 over 64 slots", total, st)
	}
}

// TestBatchNoSteadyStateAllocs pins the zero-allocation batch contract:
// once the table and scratch are sized, FindOrInsert and Find allocate
// nothing.
func TestBatchNoSteadyStateAllocs(t *testing.T) {
	tb := New(1 << 16)
	var store []int64
	n := 1024
	keys := make([]int64, n)
	hashes := make([]uint64, n)
	out := make([]uint32, n)
	outF := make([]int32, n)
	eq := func(rows []int32, vals []uint32, miss []bool, nc int) {
		for j := 0; j < nc; j++ {
			if !miss[j] && store[vals[j]] != keys[rows[j]] {
				miss[j] = true
			}
		}
	}
	alloc := func(row int32) uint32 {
		store = append(store, keys[row])
		return uint32(len(store) - 1)
	}
	fill := func(base int64) {
		for i := range keys {
			keys[i] = base + int64(i%500)
			hashes[i] = splitmix64(keys[i])
		}
	}
	fill(0)
	tb.FindOrInsert(hashes, nil, n, out, eq, alloc) // size scratch, warm store
	if got := testing.AllocsPerRun(100, func() {
		tb.FindOrInsert(hashes, nil, n, out, eq, alloc)
	}); got != 0 {
		t.Fatalf("FindOrInsert steady state allocates %.1f/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		tb.Find(hashes, nil, n, outF, eq)
	}); got != 0 {
		t.Fatalf("Find steady state allocates %.1f/op, want 0", got)
	}
}

// FuzzTableVsOracle feeds byte-driven op sequences through the scalar
// API against a map oracle, with the hash mode (good, constant, 2-bit)
// part of the input so the fuzzer can explore collision regimes.
func FuzzTableVsOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 9, 9, 9, 9, 9, 9, 9, 9})       // constant hash, duplicate keys
	f.Add([]byte{2, 0, 4, 8, 12, 16, 20, 24, 255}) // 2-bit hash classes
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var hashFn func(int64) uint64
		switch data[0] % 3 {
		case 0:
			hashFn = splitmix64
		case 1:
			hashFn = func(int64) uint64 { return 42 }
		default:
			hashFn = func(k int64) uint64 { return uint64(k) & 3 }
		}
		tb := New(0)
		var store []int64
		oracle := map[int64]uint32{}
		for _, b := range data[1:] {
			k := int64(b % 64)
			h := hashFn(k)
			eq := func(v uint32) bool { return store[v] == k }
			if b&0x80 == 0 {
				v, inserted := tb.Put(h, eq, func() uint32 {
					store = append(store, k)
					return uint32(len(store) - 1)
				})
				want, existed := oracle[k]
				if existed == inserted {
					t.Fatalf("Put key %d: inserted=%v, existed=%v", k, inserted, existed)
				}
				if !existed {
					oracle[k] = v
				} else if v != want {
					t.Fatalf("Put key %d: payload %d, oracle %d", k, v, want)
				}
			} else {
				v, ok := tb.Get(h, eq)
				want, existed := oracle[k]
				if ok != existed || (ok && v != want) {
					t.Fatalf("Get key %d: (%d,%v), oracle (%d,%v)", k, v, ok, want, existed)
				}
			}
		}
		if tb.Len() != len(oracle) {
			t.Fatalf("Len %d, oracle %d", tb.Len(), len(oracle))
		}
	})
}

// TestNewProbedSizedOnce: a table NewProbed sized for n entries has the
// power of two ≥ 2n slots (64 at least) and takes n distinct keys, a
// batch of up to 1 024 at a time, without resizing and at most half full;
// a table sized exactly at its half load grows at the next key. One grown
// from NewProbed(0) stays at most half full as it grows.
func TestNewProbedSizedOnce(t *testing.T) {
	insert := func(h *tableHarness, from, n int) {
		for lo := from; lo < from+n; lo += 1024 {
			keys := make([]int64, min(1024, from+n-lo))
			for i := range keys {
				keys[i] = int64(lo + i)
			}
			h.findOrInsert(t, keys, nil, len(keys))
			if st := h.t.Stats(); st.Load > 0.5 {
				t.Fatalf("%d keys: load %.3f above the probe load", lo+len(keys), st.Load)
			}
		}
	}
	for _, n := range []int{1, 32, 33, 1023, 1024, 1025, 3073, 40000} {
		h := newHarness(splitmix64)
		h.t = NewProbed(n)
		want := 64
		for want < 2*n {
			want *= 2
		}
		insert(h, 0, n)
		if st := h.t.Stats(); st.Slots != want || st.Resizes != 0 || st.Entries != n {
			t.Fatalf("NewProbed(%d) after %d keys: %+v, want %d slots and no resize", n, n, st, want)
		}
		insert(h, n, 1)
		if grew := h.t.Stats().Resizes == 1; grew != (2*n == want) {
			t.Fatalf("NewProbed(%d) holding %d keys in %d slots: one more key grew it: %v", n, n, want, grew)
		}
	}
	h := newHarness(splitmix64)
	h.t = NewProbed(0)
	insert(h, 0, 40000)
	if st := h.t.Stats(); st.Slots != 1<<17 || st.Resizes != 11 {
		t.Fatalf("NewProbed(0) after 40 000 keys: %+v, want 2^17 slots after 11 resizes", st)
	}
}

// TestGatherScratchOnlyPastGatherMinSlots: a table below gatherMinSlots
// slots allocates no gather-stage scratch, whatever its batches; one that
// grows past it while taking keys allocates it then, and keeps answering
// both kernels against the oracle.
func TestGatherScratchOnlyPastGatherMinSlots(t *testing.T) {
	h := newHarness(splitmix64)
	keys := make([]int64, 1024)
	for round := 0; ; round++ {
		for i := range keys {
			keys[i] = int64(round*len(keys) + i)
		}
		h.findOrInsert(t, keys, nil, len(keys))
		h.find(t, keys, nil, len(keys))
		if small := len(h.t.entries) < gatherMinSlots; small != (h.t.gEnt == nil && h.t.walkRows == nil && h.t.walkSlots == nil) {
			t.Fatalf("round %d: %d slots, gather scratch of %d rows", round, len(h.t.entries), len(h.t.gEnt))
		}
		if len(h.t.entries) > gatherMinSlots {
			return
		}
	}
}

package bufmgr

import (
	"math"
	"sync"
	"testing"

	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

func buildTable(t *testing.T, rows, groupRows int) *storage.Table {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "val", Kind: vtypes.KindF64},
	)
	b := storage.NewBuilder("t", schema, groupRows)
	for i := 0; i < rows; i++ {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), vtypes.F64Value(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestFetchColumnCaches(t *testing.T) {
	tbl := buildTable(t, 1000, 100)
	m := New(1<<30, nil)
	v1, err := m.FetchColumn(tbl, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.FetchColumn(tbl, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("second fetch must hit cache and return same vector")
	}
	st := m.Stats()
	if st.IOChunks != 1 || st.Hits != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if v1.I64[99] != 99 {
		t.Fatal("decoded data wrong")
	}
	if !m.Contains(tbl, 0, 0) || m.Contains(tbl, 1, 0) {
		t.Fatal("Contains wrong")
	}
	if m.CachedBytes() <= 0 {
		t.Fatal("cache occupancy must be positive")
	}
}

func TestEvictionUnderCapacity(t *testing.T) {
	tbl := buildTable(t, 1000, 100) // 10 groups
	// Capacity for roughly 2 chunks of 100 int64s.
	m := New(1700, nil)
	for g := 0; g < 10; g++ {
		if _, err := m.FetchColumn(tbl, g, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions under tight capacity")
	}
	// Re-fetch group 0: must be a miss now.
	if _, err := m.FetchColumn(tbl, 0, 0); err != nil {
		t.Fatal(err)
	}
	if m.Stats().IOChunks != st.IOChunks+1 {
		t.Fatal("evicted chunk must reload from disk")
	}
}

// TestStringChunksAccountPayload: a VARCHAR chunk is charged its 16-byte
// string headers plus every string's bytes, so a pool sized for exactly
// two such chunks holds two and evicts on the third. (The bytes used to
// be dropped by an integer division, which let the pool hold ~1.8x its
// capacity in l_comment-like columns.)
func TestStringChunksAccountPayload(t *testing.T) {
	const rows, strLen = 100, 43
	schema := vtypes.NewSchema(vtypes.Column{Name: "s", Kind: vtypes.KindStr})
	b := storage.NewBuilder("t", schema, rows)
	for i := 0; i < 3*rows; i++ {
		s := []byte("0123456789012345678901234567890123456789012")
		s[0], s[1] = byte('a'+i%26), byte('a'+i/26%26) // distinct, not dictionary-friendly
		if err := b.AppendRow(vtypes.Row{vtypes.StrValue(string(s))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	const chunk = rows * (16 + strLen)
	m := New(2*chunk, nil)
	for g := 0; g < 2; g++ {
		if _, err := m.FetchColumn(tbl, g, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.CachedBytes(); got != 2*chunk {
		t.Fatalf("two %d-row chunks of %d-byte strings accounted at %d bytes, want %d", rows, strLen, got, 2*chunk)
	}
	if ev := m.Stats().Evictions; ev != 0 {
		t.Fatalf("%d evictions with capacity for exactly two chunks", ev)
	}
	if _, err := m.FetchColumn(tbl, 2, 0); err != nil {
		t.Fatal(err)
	}
	if ev := m.Stats().Evictions; ev != 1 || m.Contains(tbl, 0, 0) {
		t.Fatalf("third chunk: %d evictions, oldest still cached = %v; want 1, false", ev, m.Contains(tbl, 0, 0))
	}
}

// TestDictChunksAccountCodes: a dictionary-coded VARCHAR chunk is cached
// coded, with no string per row, and charged one byte a row for its codes
// plus each dictionary entry's header and bytes once.
func TestDictChunksAccountCodes(t *testing.T) {
	const rows = 100
	schema := vtypes.NewSchema(vtypes.Column{Name: "flag", Kind: vtypes.KindStr})
	b := storage.NewBuilder("t", schema, rows)
	for i := 0; i < rows; i++ {
		if err := b.AppendRow(vtypes.Row{vtypes.StrValue([]string{"A", "NO"}[i%2])}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := New(0, nil)
	v, err := m.FetchColumn(tbl, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Codes) != rows || len(v.Dict) != 2 || v.Str != nil {
		t.Fatalf("chunk cached with %d codes, %d entries and %d strings, want %d, 2 and none", len(v.Codes), len(v.Dict), len(v.Str), rows)
	}
	// 100 codes at 1 byte, then the entries "A" and "NO": 16 + 1 and 16 + 2.
	const want = 100 + (16 + 1) + (16 + 2)
	if got := m.CachedBytes(); got != want {
		t.Fatalf("dictionary chunk accounted at %d bytes, want %d", got, want)
	}
}

// TestDictF64ChunksAccountCodes: a dictionary-coded DOUBLE chunk is
// cached coded, with no value per row, and charged one byte a row for its
// codes plus 8 bytes a dictionary entry; a plain one 8 bytes a row.
func TestDictF64ChunksAccountCodes(t *testing.T) {
	const rows = 100
	schema := vtypes.NewSchema(vtypes.Column{Name: "disc", Kind: vtypes.KindF64})
	b := storage.NewBuilder("t", schema, rows)
	for i := 0; i < 2*rows; i++ {
		v := []float64{0.05, 0, math.Copysign(0, -1)}[i%3]
		if i >= rows {
			v = float64(i) // the second group: 100 values, plain
		}
		if err := b.AppendRow(vtypes.Row{vtypes.F64Value(v)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := New(0, nil)
	v, err := m.FetchColumn(tbl, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Codes) != rows || len(v.DictF64) != 3 || v.F64 != nil {
		t.Fatalf("chunk cached with %d codes, %d entries and %d values, want %d, 3 and none", len(v.Codes), len(v.DictF64), len(v.F64), rows)
	}
	if want := int64(rows + 8*3); m.CachedBytes() != want {
		t.Fatalf("dictionary chunk accounted at %d bytes, want %d", m.CachedBytes(), want)
	}
	if _, err := m.FetchColumn(tbl, 1, 0); err != nil {
		t.Fatal(err)
	}
	if want := int64(rows + 8*3 + 8*rows); m.CachedBytes() != want {
		t.Fatalf("with a plain chunk beside it: %d bytes, want %d", m.CachedBytes(), want)
	}
}

func TestNormalScanDeliversInOrder(t *testing.T) {
	tbl := buildTable(t, 500, 100)
	m := New(0, nil)
	h := m.StartScan(tbl, []int{0}, PolicyNormal)
	defer h.Close()
	var groups []int
	var pos []int64
	for {
		res, ok, err := h.NextGroup()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		groups = append(groups, res.Group)
		pos = append(pos, res.Pos)
		if res.Rows != 100 {
			t.Fatalf("group %d rows %d", res.Group, res.Rows)
		}
		if res.Vecs[0].I64[0] != res.Pos {
			t.Fatal("group data misaligned with position")
		}
	}
	for i, g := range groups {
		if g != i || pos[i] != int64(i*100) {
			t.Fatalf("normal scan must be in order: %v %v", groups, pos)
		}
	}
}

func TestCoopScanDeliversAllGroupsOnce(t *testing.T) {
	tbl := buildTable(t, 500, 100)
	m := New(0, nil)
	h := m.StartScan(tbl, []int{0, 1}, PolicyCooperative)
	defer h.Close()
	seen := map[int]bool{}
	for {
		res, ok, err := h.NextGroup()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen[res.Group] {
			t.Fatalf("group %d delivered twice", res.Group)
		}
		seen[res.Group] = true
	}
	if len(seen) != 5 {
		t.Fatalf("delivered %d groups, want 5", len(seen))
	}
}

func TestCoopScanPrefersCachedGroups(t *testing.T) {
	tbl := buildTable(t, 500, 100)
	m := New(0, nil)
	// Warm group 3 in cache.
	if _, err := m.FetchColumn(tbl, 3, 0); err != nil {
		t.Fatal(err)
	}
	h := m.StartScan(tbl, []int{0}, PolicyCooperative)
	defer h.Close()
	res, ok, err := h.NextGroup()
	if err != nil || !ok {
		t.Fatal("scan should deliver")
	}
	if res.Group != 3 {
		t.Fatalf("cooperative scan should serve cached group 3 first, got %d", res.Group)
	}
}

func TestCoopScanSharesIO(t *testing.T) {
	tbl := buildTable(t, 1000, 100) // 10 groups
	m := New(0, nil)
	// Two cooperative scans interleaved: total chunk loads should be
	// roughly one table's worth (10 groups × 1 col), not two.
	h1 := m.StartScan(tbl, []int{0}, PolicyCooperative)
	h2 := m.StartScan(tbl, []int{0}, PolicyCooperative)
	defer h1.Close()
	defer h2.Close()
	done1, done2 := false, false
	for !done1 || !done2 {
		if !done1 {
			_, ok, err := h1.NextGroup()
			if err != nil {
				t.Fatal(err)
			}
			done1 = !ok
		}
		if !done2 {
			_, ok, err := h2.NextGroup()
			if err != nil {
				t.Fatal(err)
			}
			done2 = !ok
		}
	}
	st := m.Stats()
	if st.IOChunks != 10 {
		t.Fatalf("cooperative scans should load each chunk once, got %d loads (%d hits)", st.IOChunks, st.Hits)
	}
	if st.Hits != 10 {
		t.Fatalf("second scan should be all cache hits, got %d", st.Hits)
	}
}

func TestNormalVsCoopUnderTightCache(t *testing.T) {
	// The T4 shape at unit-test scale: staggered concurrent scans with a
	// cache far smaller than the table. Normal scans re-read almost
	// everything; cooperative scans share most loads.
	tbl := buildTable(t, 2000, 100) // 20 groups

	run := func(policy ScanPolicy) int64 {
		m := New(3000, nil) // ~3-4 chunks of 100 int64
		h1 := m.StartScan(tbl, []int{0}, policy)
		h2 := m.StartScan(tbl, []int{0}, policy)
		defer h1.Close()
		defer h2.Close()
		// h1 gets a head start of 10 groups, then they interleave —
		// the staggered-arrival pattern from the paper.
		for i := 0; i < 10; i++ {
			if _, _, err := h1.NextGroup(); err != nil {
				t.Fatal(err)
			}
		}
		done1, done2 := false, false
		for !done1 || !done2 {
			if !done1 {
				_, ok, err := h1.NextGroup()
				if err != nil {
					t.Fatal(err)
				}
				done1 = !ok
			}
			if !done2 {
				_, ok, err := h2.NextGroup()
				if err != nil {
					t.Fatal(err)
				}
				done2 = !ok
			}
		}
		return m.Stats().IOChunks
	}

	normalIO := run(PolicyNormal)
	coopIO := run(PolicyCooperative)
	if coopIO >= normalIO {
		t.Fatalf("cooperative scans should need less I/O: coop=%d normal=%d", coopIO, normalIO)
	}
}

func TestScanAfterCloseErrors(t *testing.T) {
	tbl := buildTable(t, 100, 100)
	m := New(0, nil)
	h := m.StartScan(tbl, []int{0}, PolicyCooperative)
	h.Close()
	h.Close() // idempotent
	if _, _, err := h.NextGroup(); err == nil {
		t.Fatal("NextGroup after Close must error")
	}
}

func TestConcurrentFetchIsSafe(t *testing.T) {
	tbl := buildTable(t, 2000, 100)
	m := New(5000, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := (i*7 + seed) % 20
				v, err := m.FetchColumn(tbl, g, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if v.I64[0] != int64(g*100) {
					t.Errorf("group %d data wrong", g)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestSimDiskThrottleAccounting(t *testing.T) {
	tbl := buildTable(t, 200, 100)
	d := &SimDisk{BytesPerSec: 1 << 30} // fast enough not to slow tests
	m := New(0, d)
	if _, err := m.FetchColumn(tbl, 0, 0); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.IOBytes <= 0 {
		t.Fatal("throttled disk must report transferred bytes")
	}
}

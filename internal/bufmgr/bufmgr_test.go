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

// TestFetchColumnCaches: a miss decodes the chunk and charges exactly its
// compressed bytes, the values' and the null indicator's; a second fetch
// of the same chunk is a hit on the same vector.
func TestFetchColumnCaches(t *testing.T) {
	schema := vtypes.NewSchema(vtypes.Column{Name: "v", Kind: vtypes.KindI64, Nullable: true})
	b := storage.NewBuilder("t", schema, 100)
	for i := 0; i < 1000; i++ {
		v := vtypes.I64Value(int64(i))
		if i%7 == 0 {
			v = vtypes.NullValue(vtypes.KindI64)
		}
		if err := b.AppendRow(vtypes.Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := New(1 << 30)
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
	vals, nulls := len(tbl.RawChunk(0, 0)), len(tbl.RawNullChunk(0, 0))
	if nulls == 0 {
		t.Fatal("fixture has no null indicator chunk")
	}
	if st.IOBytes != int64(vals+nulls) {
		t.Fatalf("IOBytes %d, want %d value bytes + %d null-indicator bytes", st.IOBytes, vals, nulls)
	}
	if v1.I64[99] != 99 || !v1.Nulls[98] || v1.Nulls[99] {
		t.Fatal("decoded data wrong")
	}
	if !m.Contains(tbl, 0, 0) || m.Contains(tbl, 1, 0) {
		t.Fatal("Contains wrong")
	}
	if m.CachedBytes() <= 0 {
		t.Fatal("cache occupancy must be positive")
	}
}

// TestEvictionUnderCapacity: a pool holds the most recent chunks that
// fit and no more; one smaller than a chunk keeps only the last one.
func TestEvictionUnderCapacity(t *testing.T) {
	tbl := buildTable(t, 1000, 100) // 10 groups of 100 int64s, 800 B each
	for _, tc := range []struct {
		capacity int64
		kept     int
	}{{1700, 2}, {1, 1}} {
		m := New(tc.capacity)
		for g := 0; g < 10; g++ {
			if _, err := m.FetchColumn(tbl, g, 0); err != nil {
				t.Fatal(err)
			}
		}
		st := m.Stats()
		if st.Evictions != int64(10-tc.kept) || m.CachedBytes() != int64(800*tc.kept) {
			t.Fatalf("capacity %d: %d evictions, %d bytes cached; want %d and %d",
				tc.capacity, st.Evictions, m.CachedBytes(), 10-tc.kept, 800*tc.kept)
		}
		for g := 0; g < 10; g++ {
			if want := g >= 10-tc.kept; m.Contains(tbl, g, 0) != want {
				t.Fatalf("capacity %d: group %d cached = %v, want %v", tc.capacity, g, !want, want)
			}
		}
		// Re-fetch group 0: must be a miss now.
		if _, err := m.FetchColumn(tbl, 0, 0); err != nil {
			t.Fatal(err)
		}
		if m.Stats().IOChunks != st.IOChunks+1 {
			t.Fatal("evicted chunk must reload from disk")
		}
	}
}

// TestDropTableEvictsOnlyThatTable: dropping a table evicts every chunk
// of it and leaves another table's chunks cached.
func TestDropTableEvictsOnlyThatTable(t *testing.T) {
	dropped, kept := buildTable(t, 300, 100), buildTable(t, 200, 100)
	m := New(0)
	for _, tbl := range []*storage.Table{dropped, kept} {
		for g := 0; g < tbl.Groups(); g++ {
			for c := 0; c < 2; c++ {
				if _, err := m.FetchColumn(tbl, g, c); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	m.DropTable(dropped)
	for g := 0; g < 3; g++ {
		for c := 0; c < 2; c++ {
			if m.Contains(dropped, g, c) {
				t.Fatalf("dropped table's chunk (%d, %d) still cached", g, c)
			}
			if g < 2 && !m.Contains(kept, g, c) {
				t.Fatalf("other table's chunk (%d, %d) evicted", g, c)
			}
		}
	}
	// Two groups of two 800-byte columns stay; six chunks were evicted.
	if got, ev := m.CachedBytes(), m.Stats().Evictions; got != 4*800 || ev != 6 {
		t.Fatalf("after drop: %d bytes cached, %d evictions; want %d and 6", got, ev, 4*800)
	}
}

// TestStringChunksAccountPayload: a plain VARCHAR chunk is cached as an
// arena, with no string per row, and charged every string's bytes plus 4
// bytes for each of its rows+1 offsets, so a pool sized for exactly two
// such chunks holds two and evicts on the third. (The bytes used to be
// dropped by an integer division, which let the pool hold ~1.8x its
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
	const chunk = rows*strLen + 4*(rows+1)
	m := New(2 * chunk)
	for g := 0; g < 2; g++ {
		v, err := m.FetchColumn(tbl, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v.Str != nil || v.Codes != nil || v.Off == nil || len(v.Off) != rows+1 || len(v.Shared.Bytes) != rows*strLen {
			t.Fatalf("group %d not cached as an arena: %d strings, %d codes, arena %v", g, len(v.Str), len(v.Codes), v.Off != nil)
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
	m := New(0)
	v, err := m.FetchColumn(tbl, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Codes) != rows || len(v.Dict()) != 2 || v.Str != nil {
		t.Fatalf("chunk cached with %d codes, %d entries and %d strings, want %d, 2 and none", len(v.Codes), len(v.Dict()), len(v.Str), rows)
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
	m := New(0)
	v, err := m.FetchColumn(tbl, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Codes) != rows || len(v.DictF64()) != 3 || v.F64 != nil {
		t.Fatalf("chunk cached with %d codes, %d entries and %d values, want %d, 3 and none", len(v.Codes), len(v.DictF64()), len(v.F64), rows)
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

func TestConcurrentFetchIsSafe(t *testing.T) {
	tbl := buildTable(t, 2000, 100)
	m := New(5000)
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

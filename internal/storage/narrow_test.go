package storage

import (
	"math/rand"
	"runtime"
	"testing"

	"vectorwise/internal/compress"
	"vectorwise/internal/vtypes"
)

// pforTable is one group of DefaultGroupRows BIGINTs spread over a 16-bit
// range, coded PFOR: a chunk the direct decode caches 2 bytes a row.
func pforTable(t testing.TB) *Table {
	t.Helper()
	b := NewBuilder("p", vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}), 0)
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, DefaultGroupRows)
	for i := range vals {
		vals[i] = 1_000_000 + rng.Int63n(60_000)
	}
	if _, err := b.AppendColumns([]any{vals}, nil); err != nil {
		t.Fatal(err)
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if c := tbl.Meta.Groups[0].Cols[0].Codec; tbl.Groups() != 1 || c != compress.CodecPFOR {
		t.Fatalf("%d groups, coded %v", tbl.Groups(), c)
	}
	return tbl
}

// TestDecodeNarrowAllocatesOffsetsOnly: decoding a 64 K-row PFOR chunk of
// a 16-bit range allocates its 2-byte offsets and a constant, never a
// full-width copy of its values (8 bytes a row).
func TestDecodeNarrowAllocatesOffsetsOnly(t *testing.T) {
	tbl := pforTable(t)
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if v, err := tbl.DecodeChunk(0, 0); err != nil || len(v.Shared.U16) != DefaultGroupRows {
			t.Fatalf("not decoded to 2-byte offsets (error %v)", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2*DefaultGroupRows+4096 {
		t.Fatalf("a decode allocates %d bytes for %d rows", per, DefaultGroupRows)
	}
}

// BenchmarkDecodeChunkPFOR decodes the 64 K-row PFOR chunk of a 16-bit
// range through DirectFetcher, as a cold scan does: to 2-byte offsets
// through a block on the stack, so B/op is the offsets' 128 KiB and a
// header (CI fails it from 2 bytes a row plus 4 KiB; a full-width copy
// would add 512 KiB).
func BenchmarkDecodeChunkPFOR(b *testing.B) {
	tbl := pforTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (DirectFetcher{}).FetchColumn(tbl, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScannerWidensByRows: a scanner widens a narrow column into a buffer
// of the column's own sized by the rows its batches hold: a point lookup
// on a Sorted key makes one slot a column, and a scan whose first batch
// holds three rows makes three, then grows to the next batch's rows.
func TestScannerWidensByRows(t *testing.T) {
	tbl := buildTestTable(t, 3000, 1000)
	if v, err := tbl.DecodeChunk(1, 0); err != nil || !v.Narrow() || !tbl.Meta.Groups[1].Cols[0].Sorted {
		t.Fatalf("id not a Sorted narrow chunk (error %v)", err)
	}
	sc := NewScanner(tbl, []int{0, 0}, nil, &Skip{Col: 0, Lo: 1500, Hi: 1500}, 0)
	vecs, n, err := sc.Next()
	if err != nil || n != 1 || vecs[0].I64[0] != 1500 || vecs[1].I64[0] != 1500 {
		t.Fatalf("point lookup: %d rows, error %v", n, err)
	}
	for i := range sc.col {
		if c := len(sc.col[i].wide); c != 1 {
			t.Errorf("point lookup: column %d widens into %d slots", i, c)
		}
	}
	// Rows 997 on: three of group 0, then groups 1 and 2 whole.
	sc = NewScanner(tbl, []int{0}, nil, &Skip{Col: 0, Lo: 997, Hi: 1 << 20}, 0)
	for _, want := range []struct{ rows, slots int }{{3, 3}, {1000, 1000}, {1000, 1000}} {
		if vecs, n, err := sc.Next(); err != nil || n != want.rows || vecs[0].I64[0] != sc.BasePos() || len(sc.col[0].wide) != want.slots {
			t.Fatalf("batch of %d rows (error %v) widens into %d slots; want %d rows in %d", n, err, len(sc.col[0].wide), want.rows, want.slots)
		}
	}
}

// BenchmarkScannerNextNarrowI64 scans a warm table of a narrow BIGINT
// and a narrow DATE column in 48 batches an op, widening each batch
// (ns/row; the bench job fails on any allocs/op).
func BenchmarkScannerNextNarrowI64(b *testing.B) {
	rows := 3 * DefaultGroupRows / 4
	bld := NewBuilder("n", vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "d", Kind: vtypes.KindDate}), DefaultGroupRows/4)
	k, d := make([]int64, rows), make([]int64, rows)
	for i := range k {
		k[i], d[i] = int64(i/4), 8000+int64(i*7%2526)
	}
	if _, err := bld.AppendColumns([]any{k, d}, nil); err != nil {
		b.Fatal(err)
	}
	tbl, err := bld.Finish()
	if err != nil {
		b.Fatal(err)
	}
	sc := NewScanner(tbl, []int{0, 1}, cachedFetcher{}, nil, 0)
	scanAll(b, sc) // decode and cache every chunk, make the widen buffers
	for c := range 2 {
		if v, err := sc.fetch.FetchColumn(tbl, 0, c); err != nil || !v.Narrow() {
			b.Fatalf("column %d not cached narrow (err %v)", c, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += scanAll(b, sc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/row")
}

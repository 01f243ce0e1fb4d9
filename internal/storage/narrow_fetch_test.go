package storage_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"vectorwise/internal/bufmgr"
	"vectorwise/internal/compress"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// The narrow-chunk suite: tables of a BIGINT or DATE column k whose
// chunks are coded PFOR, PFOR-DELTA or RLE, beside a narrow column j,
// read through every fetcher. DirectFetcher and the buffer pool read k
// narrow when its range fits 16 bits; DecodedFetcher reads it as values.

const suiteGroupRows = 200

// narrowTable builds the table (k, j) of groups of suiteGroupRows rows:
// k holds vals (NULL where nulls says), j holds i%100.
func narrowTable(t *testing.T, kind vtypes.Kind, vals []int64, nulls []bool) *storage.Table {
	t.Helper()
	b := storage.NewBuilder("n", vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: kind, Nullable: nulls != nil},
		vtypes.Column{Name: "j", Kind: vtypes.KindI64}), suiteGroupRows)
	j := make([]int64, len(vals))
	for i := range j {
		j[i] = int64(i % 100)
	}
	if _, err := b.AppendColumns([]any{vals, j}, [][]bool{nulls, nil}); err != nil {
		t.Fatal(err)
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for g := range tbl.Groups() {
		if c := tbl.Meta.Groups[g].Cols[0].Codec; c == compress.CodecPlainI64 {
			t.Fatalf("group %d of k is plain: the suite needs a coded chunk", g)
		}
	}
	return tbl
}

// spanned returns 600 values over base that span exactly span: mostly
// base + i%3, and base + span every 50th row, so each chunk is coded.
func spanned(base int64, span uint64) []int64 {
	vals := make([]int64, 3*suiteGroupRows)
	for i := range vals {
		vals[i] = base + int64(i%3)
		if i%50 == 49 {
			vals[i] = int64(uint64(base) + span)
		}
	}
	return vals
}

// fetchers are the ways a scan reads chunks; pool is fresh per table.
func fetchers() map[string]storage.ChunkFetcher {
	return map[string]storage.ChunkFetcher{
		"DirectFetcher":  storage.DirectFetcher{},
		"bufmgr":         bufmgr.New(0),
		"DecodedFetcher": storage.DecodedFetcher{},
	}
}

// scanRows scans columns cols of tbl in vectors of vecSize rows and
// returns each column's values and whether each k row read NULL.
func scanRows(tbl *storage.Table, fetch storage.ChunkFetcher, skip *storage.Skip, vecSize int) (k, j []int64, null []bool, err error) {
	sc := storage.NewScanner(tbl, []int{0, 1}, fetch, skip, vecSize)
	for {
		vecs, n, err := sc.Next()
		if err != nil || n == 0 {
			return k, j, null, err
		}
		if len(vecs[0].I64) != n || len(vecs[1].I64) != n {
			return nil, nil, nil, fmt.Errorf("a batch of %d rows holds %d and %d values", n, len(vecs[0].I64), len(vecs[1].I64))
		}
		k, j = append(k, vecs[0].I64...), append(j, vecs[1].I64...)
		for i := range n {
			null = append(null, vecs[0].Nulls != nil && vecs[0].Nulls[i])
		}
	}
}

// TestNarrowChunksReadAlike: each table reads the same rows through
// DirectFetcher, the buffer pool and DecodedFetcher, in vectors of 1, 3
// and 1 024 rows across its group boundaries, and through ReadAllColumn;
// the direct decode caches k at the width its range needs.
func TestNarrowChunksReadAlike(t *testing.T) {
	withNulls := spanned(5000, 300)
	nulls := make([]bool, len(withNulls))
	for i := range nulls {
		if nulls[i] = i%7 == 3; nulls[i] {
			withNulls[i] = 0 // the safe value, which the chunk's range covers
		}
	}
	extremes := make([]int64, 3*suiteGroupRows)
	for i := range extremes {
		switch r := i % suiteGroupRows; {
		case r < 50:
			extremes[i] = math.MinInt64
		case r >= 150:
			extremes[i] = math.MaxInt64
		}
	}
	dates := spanned(vtypes.MustParseDate("1992-01-02"), 2525)
	for _, c := range []struct {
		name  string
		kind  vtypes.Kind
		vals  []int64
		nulls []bool
		width int // bytes a row k is cached at; 8: as int64s
	}{
		{"constant", vtypes.KindI64, slices.Repeat([]int64{-3}, 3*suiteGroupRows), nil, 1},
		{"range 2^8-1", vtypes.KindI64, spanned(-100, 1<<8-1), nil, 1},
		{"range 2^8", vtypes.KindI64, spanned(-100, 1<<8), nil, 2},
		{"range 2^16-1", vtypes.KindI64, spanned(1_000_000, 1<<16-1), nil, 2},
		{"range 2^16", vtypes.KindI64, spanned(1_000_000, 1<<16), nil, 8},
		{"range 2^32-1", vtypes.KindI64, spanned(-1<<40, 1<<32-1), nil, 8},
		{"range 2^32", vtypes.KindI64, spanned(-1<<40, 1<<32), nil, 8},
		{"range 2^40", vtypes.KindI64, spanned(7, 1<<40), nil, 8},
		{"MinInt64 and MaxInt64", vtypes.KindI64, extremes, nil, 8},
		{"near MinInt64", vtypes.KindI64, spanned(math.MinInt64, 1000), nil, 2},
		{"near MaxInt64", vtypes.KindI64, spanned(math.MaxInt64-70000, 70000), nil, 8},
		{"near MaxInt64, 16 bits", vtypes.KindI64, spanned(math.MaxInt64-60000, 60000), nil, 2},
		{"nullable", vtypes.KindI64, withNulls, nulls, 2},
		{"dates", vtypes.KindDate, dates, nil, 2},
	} {
		tbl := narrowTable(t, c.kind, c.vals, c.nulls)
		for g := range tbl.Groups() {
			v, err := tbl.DecodeChunk(g, 0)
			if err != nil {
				t.Fatalf("%s: group %d: %v", c.name, g, err)
			}
			width := 8
			if v.Narrow() {
				width = len(v.Shared.U8)/suiteGroupRows + 2*len(v.Shared.U16)/suiteGroupRows
			}
			if width != c.width || v.Narrow() == (v.I64 != nil) {
				t.Errorf("%s: group %d decodes at %d bytes a row (narrow %v), want %d", c.name, g, width, v.Narrow(), c.width)
			}
		}
		all, err := tbl.ReadAllColumn(0)
		if err != nil || !slices.Equal(all.I64, c.vals) {
			t.Errorf("%s: ReadAllColumn differs (error %v)", c.name, err)
		}
		for name, fetch := range fetchers() {
			for _, vecSize := range []int{1, 3, 1024} {
				k, j, null, err := scanRows(tbl, fetch, nil, vecSize)
				if err != nil {
					t.Fatalf("%s via %s, vectors of %d: %v", c.name, name, vecSize, err)
				}
				if !slices.Equal(k, c.vals) {
					t.Errorf("%s via %s, vectors of %d: k differs", c.name, name, vecSize)
				}
				for i := range j {
					if j[i] != int64(i%100) {
						t.Fatalf("%s via %s, vectors of %d: j row %d reads %d", c.name, name, vecSize, i, j[i])
					}
				}
				if want := c.nulls; want != nil && !slices.Equal(null, want) || want == nil && slices.Contains(null, true) {
					t.Errorf("%s via %s, vectors of %d: NULLs differ", c.name, name, vecSize)
				}
			}
		}
	}
}

// TestNarrowSortedSearch: a Sorted narrow chunk is searched on its
// offsets, the bounds translated by its base, to an empty range, one row,
// a range across groups and the whole table, through every fetcher.
func TestNarrowSortedSearch(t *testing.T) {
	const base = 1_000_000
	vals := make([]int64, 3*suiteGroupRows)
	for i := range vals {
		vals[i] = base + 3*int64(i)
	}
	tbl := narrowTable(t, vtypes.KindI64, vals, nil)
	if v, err := tbl.DecodeChunk(1, 0); err != nil || !v.Narrow() || !tbl.Meta.Groups[1].Cols[0].Sorted {
		t.Fatalf("group 1 of k: narrow %v, sorted %v, error %v", v != nil && v.Narrow(), tbl.Meta.Groups[1].Cols[0].Sorted, err)
	}
	for _, c := range []struct {
		name     string
		lo, hi   int64
		from, to int // the rows kept
	}{
		{"between two keys", base + 1, base + 2, 0, 0},
		{"below the table", math.MinInt64, base - 1, 0, 0},
		{"above the table", base + 3*600, math.MaxInt64, 0, 0},
		{"one row", base + 3*250, base + 3*250, 250, 251},
		{"across groups", base + 3*150 - 1, base + 3*450 + 2, 150, 451},
		{"whole table", math.MinInt64, math.MaxInt64, 0, 600},
	} {
		for name, fetch := range fetchers() {
			for _, vecSize := range []int{1, 3, 1024} {
				k, j, _, err := scanRows(tbl, fetch, &storage.Skip{Col: 0, Lo: c.lo, Hi: c.hi}, vecSize)
				if err != nil || !slices.Equal(k, vals[c.from:c.to]) || len(j) != len(k) {
					t.Errorf("%s via %s, vectors of %d: %d rows, error %v; want rows [%d, %d)", c.name, name, vecSize, len(k), err, c.from, c.to)
				}
			}
		}
	}
}

// TestLyingStatisticsRefused: a BIGINT column, not Ordered (its spikes
// fall back), whose group 1 has its MaxI64 lowered below a value it holds
// fails to read through
// every fetcher with ErrStatistics, narrow or not; the groups around it
// still read.
func TestLyingStatisticsRefused(t *testing.T) {
	for _, span := range []uint64{300, 1 << 40} {
		tbl := narrowTable(t, vtypes.KindI64, spanned(0, span), nil)
		tbl.Meta.Groups[1].Cols[0].MaxI64--
		if tbl.Ordered(0) {
			t.Fatal("k must not be Ordered")
		}
		for name, fetch := range fetchers() {
			if _, _, _, err := scanRows(tbl, fetch, nil, 0); !errors.Is(err, storage.ErrStatistics) || errors.Is(err, storage.ErrUnordered) {
				t.Errorf("range %d via %s: error %v; want ErrStatistics alone", span, name, err)
			}
			sc := storage.NewScanner(tbl, []int{0}, fetch, nil, 0)
			sc.SetGroupRange(2, 3)
			if _, n, err := sc.Next(); err != nil || n != suiteGroupRows {
				t.Errorf("range %d via %s: group 2 reads %d rows, error %v", span, name, n, err)
			}
		}
	}
}

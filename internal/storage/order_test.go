package storage

import (
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// orderTable builds a table of four-row groups over (k BIGINT, d DATE,
// n BIGINT NULL, f DOUBLE) from the given k values; d rises with the row,
// n equals it (and is never NULL), f falls.
func orderTable(t *testing.T, ks ...int64) *Table {
	t.Helper()
	b := NewBuilder("o", vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "d", Kind: vtypes.KindDate},
		vtypes.Column{Name: "n", Kind: vtypes.KindI64, Nullable: true},
		vtypes.Column{Name: "f", Kind: vtypes.KindF64},
	), 4)
	for i, k := range ks {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(k), vtypes.DateValue(int64(i)),
			vtypes.I64Value(int64(i)), vtypes.F64Value(float64(-i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestTableOrdered: a column is Ordered when every chunk is Sorted and no
// group's maximum exceeds the next group's minimum — equal keys may
// straddle a group boundary, overlapping sorted groups may not. A nullable
// BIGINT's chunk without a NULL is Sorted, but the column is never
// Ordered, however its values run; a DOUBLE chunk is never Sorted.
func TestTableOrdered(t *testing.T) {
	for _, c := range []struct {
		name    string
		ks      []int64
		ordered bool
	}{
		{"rising", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}, true},
		{"key straddles a group boundary", []int64{1, 2, 5, 5, 5, 5, 6, 6, 6}, true},
		{"sorted groups that overlap", []int64{1, 2, 3, 4, 3, 4, 5, 6}, false},
		{"a chunk out of order", []int64{1, 2, 4, 3, 5, 6, 7, 8}, false},
		{"empty", nil, true},
	} {
		tbl := orderTable(t, c.ks...)
		if got := tbl.Ordered(0); got != c.ordered {
			t.Errorf("%s: Ordered(k) = %v, want %v", c.name, got, c.ordered)
		}
		if !tbl.Ordered(1) || tbl.Ordered(2) || tbl.Ordered(3) {
			t.Errorf("%s: Ordered over (d, n NULL, f) = %v %v %v, want true false false",
				c.name, tbl.Ordered(1), tbl.Ordered(2), tbl.Ordered(3))
		}
		for g, grp := range tbl.Meta.Groups {
			if !grp.Cols[2].Sorted || grp.Cols[3].Sorted {
				t.Errorf("%s: group %d: Sorted over (n NULL, f) = %v %v, want true false",
					c.name, g, grp.Cols[2].Sorted, grp.Cols[3].Sorted)
			}
		}
	}
}

// TestSortedNullableChunk: a nullable chunk is Sorted only when it holds
// no NULL, even where the value stored under a NULL keeps the stored
// values in order.
func TestSortedNullableChunk(t *testing.T) {
	b := NewBuilder("n", vtypes.NewSchema(vtypes.Column{Name: "n", Kind: vtypes.KindI64, Nullable: true}), 4)
	null := vtypes.Value{Kind: vtypes.KindI64, Null: true}
	for _, v := range []vtypes.Value{
		vtypes.I64Value(1), vtypes.I64Value(2), vtypes.I64Value(3), vtypes.I64Value(4),
		null, vtypes.I64Value(5), vtypes.I64Value(6), vtypes.I64Value(7),
	} {
		if err := b.AppendRow(vtypes.Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Meta.Groups[0].Cols[0].Sorted || tbl.Meta.Groups[1].Cols[0].Sorted {
		t.Fatalf("Sorted over (no NULL, a leading NULL) = %v %v, want true false",
			tbl.Meta.Groups[0].Cols[0].Sorted, tbl.Meta.Groups[1].Cols[0].Sorted)
	}
	if tbl.Ordered(0) {
		t.Fatal("a nullable column reads as Ordered")
	}
}

// TestSortedSurvivesSaveAndAdoption: Save/Open and AppendTable carry each
// chunk's Sorted flag, and an image whose metadata predates the flag
// reads as unordered.
func TestSortedSurvivesSaveAndAdoption(t *testing.T) {
	tbl := orderTable(t, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	path := filepath.Join(t.TempDir(), "o.vwt")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("o", tbl.Schema(), 4)
	if err := b.AppendTable(tbl); err != nil {
		t.Fatal(err)
	}
	adopted, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Table{"reopened": reopened, "adopted": adopted} {
		for g := range tbl.Meta.Groups {
			for c, cm := range got.Meta.Groups[g].Cols {
				if cm.Sorted != tbl.Meta.Groups[g].Cols[c].Sorted {
					t.Fatalf("%s: group %d col %d Sorted = %v", name, g, c, cm.Sorted)
				}
			}
		}
		if !got.Ordered(0) {
			t.Fatalf("%s table lost the order of k", name)
		}
	}

	raw, err := json.Marshal(&tbl.Meta)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.ReplaceAll(string(raw), `,"sorted":true`, "")
	if old == string(raw) {
		t.Fatal(`the metadata carries no "sorted" field to drop`)
	}
	var meta TableMeta
	if err := json.Unmarshal([]byte(old), &meta); err != nil {
		t.Fatal(err)
	}
	if legacy := (&Table{Meta: meta}); legacy.Ordered(0) || legacy.Ordered(1) {
		t.Fatal("a table image without the Sorted flag reads as ordered")
	}
}

// TestDecodeRefusesFalseSorted: a chunk marked Sorted whose keys descend,
// and a nullable one marked Sorted that holds a NULL, fail to decode with
// ErrUnordered through DecodeChunk and both fetchers; the same chunks
// without the flag decode.
func TestDecodeRefusesFalseSorted(t *testing.T) {
	tbl := orderTable(t, 4, 3, 2, 1)
	nb := NewBuilder("n", vtypes.NewSchema(vtypes.Column{Name: "n", Kind: vtypes.KindI64, Nullable: true}), 4)
	for _, v := range []vtypes.Value{vtypes.I64Value(1), {Kind: vtypes.KindI64, Null: true}, vtypes.I64Value(2), vtypes.I64Value(3)} {
		if err := nb.AppendRow(vtypes.Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	nulls, err := nb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for name, lying := range map[string]*Table{"descending": tbl, "with a NULL": nulls} {
		cm := &lying.Meta.Groups[0].Cols[0]
		if cm.Sorted {
			t.Fatalf("%s: the builder marked the chunk Sorted", name)
		}
		for _, sorted := range []bool{false, true} {
			cm.Sorted = sorted
			for fetcher, fetch := range map[string]ChunkFetcher{"DecodeChunk": nil, "DirectFetcher": DirectFetcher{}, "DecodedFetcher": DecodedFetcher{}} {
				var v *vector.Vector
				if fetch == nil {
					v, err = lying.DecodeChunk(0, 0)
				} else {
					v, err = fetch.FetchColumn(lying, 0, 0)
				}
				if sorted && (!errors.Is(err, ErrUnordered) || !strings.Contains(err.Error(), "promised in key order") || v != nil) {
					t.Errorf("%s via %s: %v, error %v; want ErrUnordered", name, fetcher, v, err)
				}
				if !sorted && err != nil {
					t.Errorf("%s via %s without the flag: %v", name, fetcher, err)
				}
			}
		}
	}
}

// TestScannerRefusesOverlappingGroups: groups of four keys, each truly
// sorted, but group 2's keys start at 3, below group 1's last, 8, while
// its minimum was raised to 8 so that Table.Ordered holds. A scanner of k
// fails with ErrUnordered where two groups it reads meet, across any
// groups pruned between them, and compares a chunk's first key, not the
// first row a search leaves it. It forgets the last key at Reset and
// SetGroupRange, so a range that starts at group 2 reads, twice. Before
// the lie the column is not Ordered, and its scan is not checked.
//
// Decode refuses group 2's chunk, which holds values below its minimum
// (ErrStatistics), so the scanners here fetch each chunk as it decoded
// before the lie, as a pool that cached it then would hand it out: the
// check where two chunks meet is the scanner's own, whatever its fetcher.
func TestScannerRefusesOverlappingGroups(t *testing.T) {
	tbl := orderTable(t, 1, 2, 3, 4, 5, 6, 7, 8, 3, 4, 9, 9, 10, 11, 12, 13)
	truthful := &Table{Meta: tbl.Meta, data: tbl.data}
	truthful.Meta.Groups = slices.Clone(tbl.Meta.Groups)
	truthful.Meta.Groups[2].Cols = slices.Clone(tbl.Meta.Groups[2].Cols)
	beforeLie := fetchFunc(func(_ *Table, g, c int) (*vector.Vector, error) { return truthful.DecodeChunk(g, c) })
	drain := func(s *Scanner) ([]int64, error) {
		var keys []int64
		for {
			vecs, n, err := s.Next()
			if err != nil || n == 0 {
				return keys, err
			}
			keys = append(keys, vecs[0].I64[:n]...)
		}
	}
	if keys, err := drain(NewScanner(tbl, []int{0}, nil, nil, 3)); tbl.Ordered(0) || err != nil || len(keys) != 16 {
		t.Fatalf("before the lie: Ordered %v, %d keys, error %v; want false, 16, none", tbl.Ordered(0), len(keys), err)
	}
	tbl.Meta.Groups[2].Cols[0].MinI64 = 8
	if !tbl.Ordered(0) {
		t.Fatal("k must promise its order")
	}
	if _, err := tbl.DecodeChunk(2, 0); !errors.Is(err, ErrStatistics) || !errors.Is(err, ErrUnordered) {
		t.Fatalf("group 2 decodes with error %v; want ErrStatistics, which breaks the order promise", err)
	}
	refute := func(gs ...int) func(*GroupMeta) bool {
		return func(grp *GroupMeta) bool {
			return slices.ContainsFunc(gs, func(g int) bool { return grp == &tbl.Meta.Groups[g] })
		}
	}
	full := &Skip{Col: -1}
	for _, c := range []struct {
		name   string
		skip   *Skip
		lo, hi int // group range; hi 0: all groups
		want   []int64
	}{
		{name: "whole table", skip: full},
		{name: "across a refuted group", skip: &Skip{Refute: refute(1), Col: -1}},
		{name: "across a search that left groups empty", skip: &Skip{Col: 0, Lo: 9, Hi: math.MaxInt64}},
		{name: "from group 1", skip: full, lo: 1, hi: 4},
		{name: "after refuting the groups before", skip: &Skip{Refute: refute(0, 1), Col: -1}, want: []int64{3, 4, 9, 9, 10, 11, 12, 13}},
		{name: "from group 2", skip: full, lo: 2, hi: 4, want: []int64{3, 4, 9, 9, 10, 11, 12, 13}},
	} {
		s := NewScanner(tbl, []int{0}, beforeLie, c.skip, 3)
		if c.hi > 0 {
			s.SetGroupRange(c.lo, c.hi)
		}
		for pass := range 2 {
			keys, err := drain(s)
			if c.want == nil && !errors.Is(err, ErrUnordered) {
				t.Errorf("%s, pass %d: %v, error %v; want ErrUnordered", c.name, pass, keys, err)
			}
			if c.want != nil && (err != nil || !slices.Equal(keys, c.want)) {
				t.Errorf("%s, pass %d: %v, error %v; want %v", c.name, pass, keys, err, c.want)
			}
			s.Reset()
		}
	}
}

// fetchFunc is a ChunkFetcher made of a function.
type fetchFunc func(t *Table, g, c int) (*vector.Vector, error)

func (f fetchFunc) FetchColumn(t *Table, g, c int) (*vector.Vector, error) { return f(t, g, c) }

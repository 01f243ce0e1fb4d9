package storage

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

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

package tupleengine

import (
	"testing"

	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// TestScanReadsStrings: the tuple engine, an oracle for the vectorized
// one, scans through storage.DecodedFetcher, so the vectors it boxes rows
// from hold strings and DOUBLEs and never codes, over chunks the
// vectorized engine reads coded.
func TestScanReadsStrings(t *testing.T) {
	b := storage.NewBuilder("t", vtypes.NewSchema(vtypes.Column{Name: "flag", Kind: vtypes.KindStr},
		vtypes.Column{Name: "q", Kind: vtypes.KindF64}), 100)
	flags := []string{"A", "N", "R"}
	for i := range 300 {
		if err := b.AppendRow(vtypes.Row{vtypes.StrValue(flags[i%3]), vtypes.F64Value(float64(i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for c := range 2 {
		if v, err := tbl.DecodeChunk(0, c); err != nil || v.Codes == nil {
			t.Fatalf("fixture chunk %d not coded (err %v)", c, err)
		}
	}
	s := newScanIter(tbl, nil, []int{0, 1}, 0, 0)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != 300 {
				t.Fatalf("scanned %d rows", i)
			}
			return
		}
		if v := s.vecs[0]; v.Codes != nil || v.Dict != nil || len(v.Str) != s.n {
			t.Fatalf("row %d: scan vector of %d rows holds %d codes and %d strings", i, s.n, len(v.Codes), len(v.Str))
		}
		if v := s.vecs[1]; v.Codes != nil || v.DictF64 != nil || len(v.F64) != s.n {
			t.Fatalf("row %d: scan vector of %d rows holds %d codes and %d values", i, s.n, len(v.Codes), len(v.F64))
		}
		if row[0].Str != flags[i%3] || row[1].F64 != float64(i%4) {
			t.Fatalf("row %d: %v", i, row[0])
		}
	}
}

package tupleengine

import (
	"testing"

	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// TestScanReadsStrings: the tuple engine, an oracle for the vectorized
// one, scans through storage.StringFetcher, so the vectors it boxes rows
// from hold strings and never codes, over chunks the vectorized engine
// reads coded.
func TestScanReadsStrings(t *testing.T) {
	b := storage.NewBuilder("t", vtypes.NewSchema(vtypes.Column{Name: "flag", Kind: vtypes.KindStr}), 100)
	flags := []string{"A", "N", "R"}
	for i := range 300 {
		if err := b.AppendRow(vtypes.Row{vtypes.StrValue(flags[i%3])}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tbl.DecodeChunk(0, 0); err != nil || v.Codes == nil {
		t.Fatalf("fixture chunk not coded (err %v)", err)
	}
	s := newScanIter(tbl, nil, []int{0}, 0, 0)
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
		if row[0].Str != flags[i%3] {
			t.Fatalf("row %d: %v", i, row[0])
		}
	}
}

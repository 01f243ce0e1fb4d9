package storage

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"vectorwise/internal/compress"
	"vectorwise/internal/vtypes"
)

// plainRow is row i of plainTable's VARCHAR column: distinct, so every
// chunk is plain; empty every seventh row and on the last row of every
// group of groupRows; multibyte every fifth.
func plainRow(i, groupRows int) string {
	switch {
	case i%7 == 0 || (i+1)%groupRows == 0:
		return ""
	case i%5 == 0:
		return fmt.Sprintf("日本%dé", i)
	}
	return fmt.Sprintf("row-%d", i)
}

// plainTable builds (id BIGINT, s VARCHAR) in groups of groupRows rows.
func plainTable(t testing.TB, rows, groupRows int) *Table {
	t.Helper()
	b := NewBuilder("p", vtypes.NewSchema(vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "s", Kind: vtypes.KindStr}), groupRows)
	for i := range rows {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), vtypes.StrValue(plainRow(i, groupRows))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for g := range tbl.Groups() {
		if c := tbl.Meta.Groups[g].Cols[1].Codec; c != compress.CodecPlainStr {
			t.Fatalf("group %d: s coded %v", g, c)
		}
	}
	return tbl
}

// TestDecodeChunkArena: a plain VARCHAR chunk decodes to an arena over
// the chunk's bytes in the table image, n+1 offsets and no string;
// through DecodedFetcher it decodes to strings.
func TestDecodeChunkArena(t *testing.T) {
	tbl := plainTable(t, 300, 128)
	for g := range tbl.Groups() {
		v, err := tbl.DecodeChunk(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		rows, raw := tbl.GroupRows(g), tbl.RawChunk(g, 1)
		if v.Str != nil || v.Codes != nil || len(v.Off) != rows+1 || v.Len() != rows {
			t.Fatalf("group %d of %d rows: %d strings, %d codes, %d offsets", g, rows, len(v.Str), len(v.Codes), len(v.Off))
		}
		if b := v.Shared.Bytes; &b[0] != &raw[len(raw)-len(b)] {
			t.Fatalf("group %d: the arena's bytes are not the chunk's", g)
		}
		d, err := DecodedFetcher{}.FetchColumn(tbl, g, 1)
		if err != nil || d.Off != nil || len(d.Str) != rows {
			t.Fatalf("group %d through DecodedFetcher: arena %v, %d strings (err %v)", g, d.Off != nil, len(d.Str), err)
		}
	}
}

// TestScannerCarriesArena: every scanner batch, cut at 1, 3 and 100 rows
// across group boundaries, views the arena with one offset more than its
// rows and reads each row, empty last rows of a group among them; the
// same table saved and reopened reads alike.
func TestScannerCarriesArena(t *testing.T) {
	const rows, groupRows = 300, 128
	tbl := plainTable(t, rows, groupRows)
	path := filepath.Join(t.TempDir(), "p.vwt")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{tbl, reopened} {
		for _, vecSize := range []int{1, 3, 100} {
			sc := NewScanner(tb, []int{0, 1}, nil, nil, vecSize)
			seen := 0
			for {
				vecs, n, err := sc.Next()
				pos := sc.BasePos()
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				s := vecs[1]
				if s.Str != nil || s.Off == nil || len(s.Off) != n+1 || s.Len() != n {
					t.Fatalf("vec %d: batch at %d of %d rows: %d strings, arena %v", vecSize, pos, n, len(s.Str), s.Off != nil)
				}
				for i := range n {
					if got, want := s.StrAt(i), plainRow(int(pos)+i, groupRows); got != want {
						t.Fatalf("vec %d: row %d reads %q, want %q", vecSize, int(pos)+i, got, want)
					}
				}
				seen += n
			}
			if seen != rows {
				t.Fatalf("vec %d: scanned %d rows", vecSize, seen)
			}
		}
	}
}

// TestOpenRejectsFormatVersion1: a file of the interleaved plain-str
// layout (format version 1) is refused with an error naming both
// versions, not misread.
func TestOpenRejectsFormatVersion1(t *testing.T) {
	meta := []byte(`{"name":"old","schema":[],"groups":[],"rowcount":0}`)
	file := append([]byte{'V', 'W', 'T', 'B', 0, 0, 0, 1}, binary.LittleEndian.AppendUint64(nil, uint64(len(meta)))...)
	path := filepath.Join(t.TempDir(), "old.vwt")
	if err := writeFile(path, append(file, meta...)); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version 1 file: err %v, want one naming versions 1 and 2", err)
	}
}

// BenchmarkScannerNextPlainStr scans a warm table of a BIGINT and a plain
// VARCHAR column in 48 batches an op and reports ns/row (the bench job
// fails on any allocs/op).
func BenchmarkScannerNextPlainStr(b *testing.B) {
	tbl := plainTable(b, 3*DefaultGroupRows/4, DefaultGroupRows/4)
	sc := NewScanner(tbl, []int{0, 1}, cachedFetcher{}, nil, 0)
	scanAll(b, sc) // decode and cache every chunk
	if v, err := sc.fetch.FetchColumn(tbl, 0, 1); err != nil || v.Off == nil || v.Str != nil {
		b.Fatalf("s not cached as an arena (err %v)", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows += scanAll(b, sc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

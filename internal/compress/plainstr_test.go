package compress

import (
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestPlainStrLayout: a plain-str chunk is the frame, every row's uvarint
// length, then every row's bytes; the arena decode returns offsets over
// those bytes in place, capped so an append cannot reach past them.
func TestPlainStrLayout(t *testing.T) {
	vals := []string{"ab", "", "日本", strings.Repeat("x", 200), ""}
	data := strChunk(t, vals, CodecPlainStr)
	want := frameHeader(nil, CodecPlainStr, len(vals))
	want = append(want, 2, 0, 6, 200, 1, 0)
	for _, s := range vals {
		want = append(want, s...)
	}
	if !slices.Equal(data, want) {
		t.Fatalf("layout\\n%v\\nwant\\n%v", data, want)
	}
	off, b, _, err := DecompressStrArena(data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(off, []uint32{0, 2, 2, 8, 208, 208}) || len(b) != 208 || cap(b) != 208 || &b[0] != &data[len(data)-208] {
		t.Fatalf("offsets %v over %d bytes (cap %d), aliasing the chunk: %v", off, len(b), cap(b), &b[0] == &data[len(data)-208])
	}
}

// FuzzPlainStrChunk: rows cut from the input (cuts[i] % 8 bytes each,
// empty once it runs out, so empty rows, an empty last row, 0 and 1 rows
// and multibyte runes split or whole all occur) round-trip through
// DecompressStr and through the arena decode. The input framed as a
// plain-str chunk as it is decodes alike through both, or fails in both.
func FuzzPlainStrChunk(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("é"), []byte{2})
	f.Add([]byte("ab日本é"), []byte{0, 2, 6, 2, 0})
	f.Add([]byte("x"), []byte{1, 0})
	f.Add([]byte{3, 'a', 'b', 'c'}, []byte{0})
	f.Add([]byte{2, 0, 'h', 'i'}, []byte{0, 0})
	f.Fuzz(func(t *testing.T, in, cuts []byte) {
		vals := make([]string, len(cuts))
		rest := in
		for i, c := range cuts {
			k := min(int(c%8), len(rest))
			vals[i], rest = string(rest[:k]), rest[k:]
		}
		data := strChunk(t, vals, CodecPlainStr)
		got, err := DecompressStr(nil, data)
		if err != nil || !slices.Equal(got, vals) {
			t.Fatalf("DecompressStr: %q (err %v), want %q", got, err, vals)
		}
		checkArena(t, data, vals)

		raw := append(frameHeader(nil, CodecPlainStr, len(cuts)), in...)
		strs, serr := DecompressStr(nil, raw)
		if _, _, _, aerr := DecompressStrArena(raw); (serr == nil) != (aerr == nil) {
			t.Fatalf("raw chunk: DecompressStr err %v, arena err %v", serr, aerr)
		}
		if serr == nil {
			checkArena(t, raw, strs)
		}
	})
}

// checkArena decodes data to its offsets and bytes and checks they hold
// vals: n+1 ascending offsets from 0 to the end of the bytes.
func checkArena(t *testing.T, data []byte, vals []string) {
	t.Helper()
	off, b, _, err := DecompressStrArena(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(off) != len(vals)+1 || off[0] != 0 || int(off[len(vals)]) != len(b) {
		t.Fatalf("%d offsets %v over %d bytes for %d rows", len(off), off, len(b), len(vals))
	}
	for i, s := range vals {
		if row := string(b[off[i]:off[i+1]]); row != s || utf8.ValidString(row) != utf8.ValidString(s) {
			t.Fatalf("row %d: %q, want %q", i, row, s)
		}
	}
}

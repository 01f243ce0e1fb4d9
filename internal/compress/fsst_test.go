package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// fsstChunk encodes vals as an FSST chunk whether or not it is smaller
// than plain, as EncodeStr does when it is.
func fsstChunk(vals []string) []byte {
	return encodeFSST(frameHeader(nil, CodecFSST, len(vals)), vals)
}

// checkFSST decodes an FSST chunk of vals both ways and checks every row,
// that two rows are equal exactly when their codes are, and that a row
// encoded alone with the chunk's table (Symbols.Encode, what a predicate
// does to a constant) gives the row's codes.
func checkFSST(t *testing.T, data []byte, vals []string) {
	t.Helper()
	if c, n, _, err := ReadHeader(data); err != nil || c != CodecFSST || n != len(vals) {
		t.Fatalf("header: codec %v, %d rows (err %v), want fsst of %d", c, n, err, len(vals))
	}
	got, err := DecompressStr(nil, data)
	if err != nil || !slices.Equal(got, vals) {
		t.Fatalf("DecompressStr: %q (err %v), want %q", got, err, vals)
	}
	off, codes, sym, err := DecompressStrArena(data)
	if err != nil || sym == nil || len(off) != len(vals)+1 || int(off[len(vals)]) != len(codes) {
		t.Fatalf("arena: %d offsets over %d codes, table %v (err %v)", len(off), len(codes), sym != nil, err)
	}
	first := map[string]string{} // a row's codes -> the row they decode to
	for i, s := range vals {
		row := codes[off[i]:off[i+1]]
		if dec := sym.Decode(nil, row); string(dec) != s || sym.DecodedLen(row) != len(s) {
			t.Fatalf("row %d decodes to %q (length %d), want %q", i, dec, sym.DecodedLen(row), s)
		}
		if enc := sym.Encode(nil, s); !bytes.Equal(enc, row) {
			t.Fatalf("row %d %q: codes %v, encoded alone %v", i, s, row, enc)
		}
		if prev, ok := first[string(row)]; ok && prev != s {
			t.Fatalf("rows %q and %q have the same codes %v", prev, s, row)
		}
		first[string(row)] = s
	}
	if len(first) != len(distinct(vals)) {
		t.Fatalf("%d distinct rows have %d distinct codes", len(distinct(vals)), len(first))
	}
}

func distinct(vals []string) map[string]bool {
	m := map[string]bool{}
	for _, s := range vals {
		m[s] = true
	}
	return m
}

// TestFSSTCompressesText: 2 000 rows of a few words from a small
// vocabulary, TPC-H's comment shape, code in well under a third of
// plain-str's bytes, and EncodeStr keeps FSST for them. The chunk is the
// same every time it is encoded.
func TestFSSTCompressesText(t *testing.T) {
	words := strings.Fields("requests deposits packages foxes accounts pending furiously carefully quickly special express regular final bold even silent ironic")
	vals := make([]string, 2000)
	x := uint64(7)
	for i := range vals {
		var w []string
		for range 3 + i%5 {
			x = x*6364136223846793005 + 1442695040888963407
			w = append(w, words[x>>33%uint64(len(words))])
		}
		vals[i] = strings.Join(w, " ")
	}
	data, codec, err := EncodeStr(vals)
	if err != nil || codec != CodecFSST {
		t.Fatalf("coded %v (err %v)", codec, err)
	}
	checkFSST(t, data, vals)
	if 3*len(data) > plainStrSize(vals) {
		t.Fatalf("fsst chunk of %d bytes, plain %d", len(data), plainStrSize(vals))
	}
	if again, _, _ := EncodeStr(vals); !bytes.Equal(again, data) {
		t.Fatal("a second encoding of the chunk differs")
	}
}

// TestFSSTFallsBack: EncodeStr keeps plain when the FSST chunk of more
// than MaxCodeDict distinct values is not smaller than plain (random bytes
// code as escapes, and an empty chunk needs its table byte), and when the
// dictionary of at most MaxCodeDict values is not either; it never tries
// FSST on a chunk whose dictionary holds every value.
func TestFSSTFallsBack(t *testing.T) {
	x := uint64(1)
	noise := make([]string, 300)
	for i := range noise {
		b := make([]byte, 6)
		for j := range b {
			x = x*6364136223846793005 + 1442695040888963407
			b[j] = byte(x >> 56)
		}
		noise[i] = string(b)
	}
	if f := len(fsstChunk(noise)); f < plainStrSize(noise) {
		t.Fatalf("noise: fsst chunk of %d bytes, plain %d", f, plainStrSize(noise))
	}
	for name, vals := range map[string][]string{"noise": noise, "256 of noise": noise[:256], "empty": nil} {
		data, codec, err := EncodeStr(vals)
		if c, _, _, _ := ReadHeader(data); err != nil || codec != CodecPlainStr || c != codec {
			t.Errorf("%s: coded %v, framed %v (err %v), want plain-str", name, codec, c, err)
		}
	}
}

// TestFSSTCorruptChunks: a table whose symbol count or lengths overrun the
// payload or are out of range, a row ending in an escape, a code past the
// table and bad row lengths are errors from both decoders, never a panic.
// (A chunk of no rows is not read by DecompressStr, of any codec.)
func TestFSSTCorruptChunks(t *testing.T) {
	chunk := func(rows int, payload ...byte) []byte {
		return append(frameHeader(nil, CodecFSST, rows), payload...)
	}
	for name, data := range map[string][]byte{
		"no table":           chunk(1),
		"symbols overrun":    chunk(1, 3, 1, 1),
		"symbol of 0 bytes":  chunk(1, 1, 0, 0),
		"symbol of 9 bytes":  chunk(1, 1, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0),
		"symbol bytes short": chunk(1, 1, 4, 'a', 'b'),
		"255 symbols short":  chunk(1, 255, 1),
		"dangling escape":    chunk(1, 1, 1, 'a', 2, 0, FSSTEscape),
		"escape at row end":  chunk(2, 1, 1, 'a', 1, 2, FSSTEscape, 0, 0),
		"code past table":    chunk(1, 1, 1, 'a', 1, 1),
		"lengths overrun":    chunk(1, 1, 1, 'a', 5, 0),
		"trailing codes":     chunk(1, 1, 1, 'a', 1, 0, 0),
		"rows past payload":  chunk(1000, 0, 1, 0),
	} {
		if _, err := DecompressStr(nil, data); err == nil {
			t.Errorf("%s: DecompressStr accepted the chunk", name)
		}
		if _, _, _, err := DecompressStrArena(data); err == nil {
			t.Errorf("%s: DecompressStrArena accepted the chunk", name)
		}
	}
	// The smallest valid chunks: no symbol, rows of escapes and none.
	for _, data := range [][]byte{chunk(0, 0), chunk(2, 0, 2, 0, FSSTEscape, 'x')} {
		if _, _, _, err := DecompressStrArena(data); err != nil {
			t.Errorf("% x: %v", data, err)
		}
	}
}

// fuzzRows cuts rows from in: cut c takes c bytes when c < 200 and
// 40×(c−200) bytes past that (up to 2 200, over 255), as long as in
// lasts, and empty rows after. A cut of 255 repeats the row before, so
// equal rows occur; a first cut of 254 makes every row the first one.
func fuzzRows(in []byte, cuts []byte) []string {
	vals := make([]string, 0, len(cuts))
	for i, c := range cuts {
		switch {
		case c == 255 && i > 0:
			vals = append(vals, vals[i-1])
			continue
		case c == 254 && i > 0 && cuts[0] == 254:
			vals = append(vals, vals[0])
			continue
		}
		k := int(c)
		if k >= 200 {
			k = 40 * (k - 200)
		}
		k = min(k, len(in))
		vals = append(vals, string(in[:k]))
		in = in[k:]
	}
	return vals
}

// FuzzFSSTChunk: rows cut from the input (fuzzRows: empty rows, rows over
// 255 bytes, bytes 0xFF and 0x00, repeated rows and chunks of one distinct
// row) round-trip through an FSST chunk, whose rows are equal exactly when
// their codes are. The input framed as an FSST chunk as it is decodes
// alike through both decoders, or fails in both.
func FuzzFSSTChunk(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("special requests"), []byte{0, 7, 1, 8, 255})
	f.Add([]byte("\xff\xff\x00\xffa\xff"), []byte{2, 0, 4, 255, 255})
	f.Add(bytes.Repeat([]byte("carefully ironic packages "), 100), []byte{210, 255, 202, 30, 0, 255})
	f.Add([]byte("only row"), []byte{254, 8, 254, 254, 254})
	f.Add([]byte{1, 1, 1, 'a', 2, 0, 255}, []byte{0})
	f.Fuzz(func(t *testing.T, in, cuts []byte) {
		vals := fuzzRows(in, cuts)
		checkFSST(t, fsstChunk(vals), vals)

		if len(cuts) == 0 {
			return // DecompressStr reads no payload of a chunk of no rows
		}
		raw := append(frameHeader(nil, CodecFSST, len(cuts)), in...)
		strs, serr := DecompressStr(nil, raw)
		off, codes, sym, aerr := DecompressStrArena(raw)
		if (serr == nil) != (aerr == nil) {
			t.Fatalf("raw chunk: DecompressStr err %v, arena err %v", serr, aerr)
		}
		for i, s := range strs {
			if got := string(sym.Decode(nil, codes[off[i]:off[i+1]])); got != s {
				t.Fatalf("raw chunk row %d: arena decodes %q, DecompressStr %q", i, got, s)
			}
		}
	})
}

// TestFSSTSymbolTableLimits: a chunk of all 256 byte values and of
// runs longer than 8 bytes trains at most 255 symbols of 1 to 8 bytes,
// and escapes the bytes no symbol covers, 0xFF among them.
func TestFSSTSymbolTableLimits(t *testing.T) {
	var vals []string
	for b := range 256 {
		vals = append(vals, strings.Repeat(string(rune(0))+string([]byte{byte(b)}), 1+b%13), fmt.Sprint(b))
	}
	vals = append(vals, strings.Repeat("\xff", 300), "")
	data := fsstChunk(vals)
	checkFSST(t, data, vals)
	_, _, sym, err := DecompressStrArena(data)
	if err != nil || sym.Len() > 255 {
		t.Fatalf("table of %d symbols (err %v)", sym.Len(), err)
	}
	for c := range sym.Len() {
		if _, n := sym.Symbol(byte(c)); n < 1 || n > 8 {
			t.Fatalf("symbol %d of %d bytes", c, n)
		}
	}
	// Row lengths are uvarints of the code count, as plain-str's are of
	// the byte count.
	_, n, payload, _ := ReadHeader(data)
	_, rest, _ := readSymbols(payload)
	if l, k := binary.Uvarint(rest); k <= 0 || n != len(vals) || int(l) != len(sym.Encode(nil, vals[0])) {
		t.Fatalf("first row length %d (%d bytes), want %d", l, k, len(sym.Encode(nil, vals[0])))
	}
}

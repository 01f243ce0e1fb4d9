package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"vectorwise/internal/compress"
	"vectorwise/internal/vtypes"
)

// commentWords builds TPC-H-comment-like text, which FSST codes.
var commentWords = strings.Fields("requests deposits packages foxes accounts pending furiously carefully quickly special express regular final bold even silent ironic")

func comment(r *rand.Rand) string {
	w := make([]string, 2+r.Intn(6))
	for i := range w {
		w[i] = commentWords[r.Intn(len(commentWords))]
	}
	return strings.Join(w, " ")
}

// fsstTable builds (id BIGINT, c VARCHAR, n VARCHAR NULL) of comments in
// groups of groupRows rows, n NULL every fifth row, and returns it with
// every row's c and n (nil for NULL), checking both are FSST in every
// full group.
func fsstTable(t testing.TB, rows, groupRows int) (*Table, map[int64][2]*string) {
	t.Helper()
	schema := vtypes.NewSchema(vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "c", Kind: vtypes.KindStr}, vtypes.Column{Name: "n", Kind: vtypes.KindStr, Nullable: true})
	b := NewBuilder("f", schema, groupRows)
	r := rand.New(rand.NewSource(int64(rows)))
	want := map[int64][2]*string{}
	for i := range int64(rows) {
		c, n := comment(r), comment(r)
		nv := vtypes.StrValue(n)
		if i%5 == 0 {
			nv = vtypes.NullValue(vtypes.KindStr)
		}
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(i), vtypes.StrValue(c), nv}); err != nil {
			t.Fatal(err)
		}
		want[i] = [2]*string{&c, nil}
		if !nv.Null {
			want[i] = [2]*string{&c, &n}
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for g := range tbl.Groups() {
		if cols := tbl.Meta.Groups[g].Cols; tbl.GroupRows(g) == groupRows && (cols[1].Codec != compress.CodecFSST || cols[2].Codec != compress.CodecFSST) {
			t.Fatalf("group %d: c coded %v, n %v", g, cols[1].Codec, cols[2].Codec)
		}
	}
	return tbl, want
}

// strInImage reports whether s's bytes lie in t's data section.
func strInImage(t *Table, s string) bool {
	return len(s) > 0 && inImage(t, uintptr(unsafe.Pointer(unsafe.StringData(s))))
}

// TestDecodeChunkFSST: an FSST chunk decodes to an arena over its own
// codes in the table image and its symbol table, n+1 offsets and no
// string; through DecodedFetcher, and for ReadAllColumn, to ordinary
// strings, which are not views of the image. Its statistics are the
// values' least and greatest.
func TestDecodeChunkFSST(t *testing.T) {
	tbl, want := fsstTable(t, 1200, 400)
	for g := range tbl.Groups() {
		v, err := tbl.DecodeChunk(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		rows, raw := tbl.GroupRows(g), tbl.RawChunk(g, 1)
		if v.Str != nil || v.Codes != nil || len(v.Off) != rows+1 || v.Shared.Symbols == nil {
			t.Fatalf("group %d of %d rows: %d strings, %d codes, %d offsets", g, rows, len(v.Str), len(v.Codes), len(v.Off))
		}
		text := 0
		for i := range rows {
			text += len(*want[int64(g*400+i)][0])
		}
		if b := v.Shared.Bytes; &b[0] != &raw[len(raw)-len(b)] || 3*len(b) > text {
			t.Fatalf("group %d: the arena's %d codes of %d bytes of text are not the chunk's, or not coded", g, len(b), text)
		}
		d, err := DecodedFetcher{}.FetchColumn(tbl, g, 1)
		if err != nil || d.Off != nil || len(d.Str) != rows {
			t.Fatalf("group %d through DecodedFetcher: arena %v, %d strings (err %v)", g, d.Off != nil, len(d.Str), err)
		}
		lo, hi := *want[int64(g*400)][0], *want[int64(g*400)][0]
		for i := range rows {
			s := *want[int64(g*400+i)][0]
			if v.StrAt(i) != s || d.Str[i] != s {
				t.Fatalf("group %d row %d reads %q and %q, want %q", g, i, v.StrAt(i), d.Str[i], s)
			}
			lo, hi = min(lo, s), max(hi, s)
		}
		if cm := tbl.Meta.Groups[g].Cols[1]; cm.MinStr != lo || cm.MaxStr != hi {
			t.Fatalf("group %d: statistics [%q, %q], want [%q, %q]", g, cm.MinStr, cm.MaxStr, lo, hi)
		}
	}
	all, err := tbl.ReadAllColumn(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range all.Str {
		if w := want[int64(i)][1]; all.Nulls[i] != (w == nil) || w != nil && s != *w || strInImage(tbl, s) {
			t.Fatalf("row %d: ReadAllColumn %q (NULL %v, in the image %v)", i, s, all.Nulls[i], strInImage(tbl, s))
		}
	}
}

// TestSaveOpenFSST: a table of FSST chunks, one column NULLable, saved and
// opened again holds every row it held, read through the scanner (codes)
// and through DecodedFetcher (strings), both ways round: every row read is
// one written, and every row written is read.
func TestSaveOpenFSST(t *testing.T) {
	tbl, want := fsstTable(t, 3000, 1024)
	path := filepath.Join(t.TempDir(), "f.vwt")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, fetch := range []ChunkFetcher{nil, DecodedFetcher{}} {
		seen := map[int64]bool{}
		sc := NewScanner(got, []int{0, 1, 2}, fetch, nil, 100)
		for {
			vecs, n, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for i := range n {
				id := vecs[0].I64[i]
				w, ok := want[id]
				null := vecs[2].Nulls != nil && vecs[2].Nulls[i]
				if !ok || seen[id] || vecs[1].StrAt(i) != *w[0] || null != (w[1] == nil) || w[1] != nil && vecs[2].StrAt(i) != *w[1] {
					t.Fatalf("%T: row %d reads %q, %q (NULL %v)", fetch, id, vecs[1].StrAt(i), vecs[2].StrAt(i), null)
				}
				seen[id] = true
			}
		}
		if len(seen) != len(want) {
			t.Fatalf("%T: read %d rows of %d", fetch, len(seen), len(want))
		}
	}
}

// version rewrites the format version of the table file at path.
func version(t *testing.T, path string, v byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[7] = v
	if err := writeFile(path, raw); err != nil {
		t.Fatal(err)
	}
}

// TestOpenReadsFormatVersion3: a file of format version 3, which holds no
// FSST chunk, opens and reads the same values as the table it was saved
// from; one whose metadata names an FSST chunk is refused.
func TestOpenReadsFormatVersion3(t *testing.T) {
	tbl := buildTestTable(t, 300, 128)
	if tbl.holdsFSST() {
		t.Fatal("the version 3 table holds an FSST chunk")
	}
	path := filepath.Join(t.TempDir(), "v3.vwt")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	version(t, path, 3)
	got, err := Open(path)
	if err != nil {
		t.Fatalf("version 3 file: %v", err)
	}
	for c := range tbl.Meta.Cols {
		a, err := tbl.ReadAllColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.ReadAllColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range int(tbl.Rows()) {
			if x, y := a.Get(i), b.Get(i); !x.Equal(y) || x.Null != y.Null {
				t.Fatalf("col %d row %d: %v, version 3 file %v", c, i, x, y)
			}
		}
	}
	fsst, _ := fsstTable(t, 1200, 400)
	if err := fsst.Save(path); err != nil {
		t.Fatal(err)
	}
	version(t, path, 3)
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "FSST") {
		t.Fatalf("a version 3 file of FSST chunks: %v", err)
	}
}

// TestOpenRejectsOtherVersions: a file of any format version but 3 and 4
// is refused with an error naming its version and this build's.
func TestOpenRejectsOtherVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.vwt")
	for _, v := range []byte{0, 1, 2, 5, 255} {
		if err := buildTestTable(t, 10, 5).Save(path); err != nil {
			t.Fatal(err)
		}
		version(t, path, v)
		_, err := Open(path)
		if want := fmt.Sprintf("version %d;", v); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "version 4") {
			t.Fatalf("version %d file: err %v, want one naming versions %d and 4", v, err, v)
		}
	}
}

package storage

import (
	"path/filepath"
	"strings"
	"testing"

	"vectorwise/internal/compress"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

func testSchema() *vtypes.Schema {
	return vtypes.NewSchema(
		vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "price", Kind: vtypes.KindF64},
		vtypes.Column{Name: "flag", Kind: vtypes.KindStr},
		vtypes.Column{Name: "ok", Kind: vtypes.KindBool},
		vtypes.Column{Name: "note", Kind: vtypes.KindStr, Nullable: true},
	)
}

func buildTestTable(t testing.TB, rows, groupRows int) *Table {
	t.Helper()
	b := NewBuilder("test", testSchema(), groupRows)
	flags := []string{"A", "B", "C"}
	for i := 0; i < rows; i++ {
		note := vtypes.StrValue("note")
		if i%3 == 0 {
			note = vtypes.NullValue(vtypes.KindStr)
		}
		row := vtypes.Row{
			vtypes.I64Value(int64(i)),
			vtypes.F64Value(float64(i) * 1.5),
			vtypes.StrValue(flags[i%3]),
			vtypes.BoolValue(i%2 == 0),
			note,
		}
		if err := b.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestBuilderGroups(t *testing.T) {
	tbl := buildTestTable(t, 250, 100)
	if tbl.Rows() != 250 {
		t.Fatalf("Rows = %d", tbl.Rows())
	}
	if tbl.Groups() != 3 {
		t.Fatalf("Groups = %d", tbl.Groups())
	}
	if tbl.GroupRows(0) != 100 || tbl.GroupRows(2) != 50 {
		t.Fatal("group sizes wrong")
	}
}

func TestChunkStatsAndCodecs(t *testing.T) {
	tbl := buildTestTable(t, 200, 100)
	idMeta := tbl.Meta.Groups[1].Cols[0]
	if !idMeta.HasStats || idMeta.MinI64 != 100 || idMeta.MaxI64 != 199 {
		t.Fatalf("id stats wrong: %+v", idMeta)
	}
	// Sequential ids should pick PFOR-DELTA.
	if idMeta.Codec != compress.CodecPFORDelta {
		t.Errorf("sequential ids got codec %v", idMeta.Codec)
	}
	// Low-cardinality flag column should be dictionary coded.
	flagMeta := tbl.Meta.Groups[0].Cols[2]
	if flagMeta.Codec != compress.CodecDict {
		t.Errorf("flag column got codec %v", flagMeta.Codec)
	}
	if flagMeta.MinStr != "A" || flagMeta.MaxStr != "C" {
		t.Errorf("flag stats wrong: %+v", flagMeta)
	}
	priceMeta := tbl.Meta.Groups[0].Cols[1]
	if priceMeta.MinF64 != 0 || priceMeta.MaxF64 != 99*1.5 {
		t.Errorf("price stats wrong: %+v", priceMeta)
	}
}

func TestDecodeChunkRoundtrip(t *testing.T) {
	tbl := buildTestTable(t, 150, 64)
	v, err := tbl.DecodeChunk(1, 0) // ids 64..127
	if err != nil {
		t.Fatal(err)
	}
	if v.I64[0] != 64 || v.I64[63] != 127 {
		t.Fatalf("chunk values wrong: %d..%d", v.I64[0], v.I64[63])
	}
	// Nullable column carries its indicator.
	nv, err := tbl.DecodeChunk(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if nv.Nulls == nil {
		t.Fatal("nullable column must decode indicator")
	}
	if !nv.Nulls[0] || nv.Nulls[1] {
		t.Fatal("null pattern wrong")
	}
	// A dictionary chunk decodes coded: codes and a dictionary, no strings.
	if nv.Str != nil || len(nv.Codes) != 64 || nv.Len() != 64 {
		t.Fatalf("nullable VARCHAR chunk decoded with %d strings and %d codes", len(nv.Str), len(nv.Codes))
	}
	if nv.StrAt(0) != "" || nv.StrAt(1) != "note" {
		t.Fatal("safe value for NULL string must be empty")
	}
	// DecodedFetcher decodes the same chunk to its strings.
	sv, err := DecodedFetcher{}.FetchColumn(tbl, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Codes != nil || sv.Dict() != nil || len(sv.Str) != 64 || sv.Str[0] != "" || sv.Str[1] != "note" || !sv.Nulls[0] {
		t.Fatalf("DecodedFetcher decoded %d strings, %d codes", len(sv.Str), len(sv.Codes))
	}
}

func TestNullInNonNullableRejected(t *testing.T) {
	b := NewBuilder("t", vtypes.NewSchema(vtypes.Column{Name: "a", Kind: vtypes.KindI64}), 10)
	if err := b.AppendRow(vtypes.Row{vtypes.NullValue(vtypes.KindI64)}); err == nil {
		t.Fatal("NULL in non-nullable column must error")
	}
	if err := b.AppendRow(vtypes.Row{vtypes.StrValue("x")}); err == nil {
		t.Fatal("kind mismatch must error")
	}
	if err := b.AppendRow(vtypes.Row{}); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

func TestSaveOpenRoundtrip(t *testing.T) {
	tbl := buildTestTable(t, 123, 50)
	path := filepath.Join(t.TempDir(), "test.vwt")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 123 || got.Groups() != 3 {
		t.Fatal("reloaded meta wrong")
	}
	// Row 77 is row 27 of group 1.
	for c := range tbl.Meta.Cols {
		v1, err := tbl.DecodeChunk(1, c)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := got.DecodeChunk(1, c)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := v1.Get(27), v2.Get(27); !a.Equal(b) {
			t.Fatalf("row mismatch at col %d: %v vs %v", c, a, b)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.vwt")
	if err := writeFile(path, []byte("not a table")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("garbage file must be rejected")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.vwt")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestOpenRejectsCorruptExtents: Open refuses metadata whose chunks or
// row counts a scan would trust out of bounds, and names the file.
func TestOpenRejectsCorruptExtents(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(m *TableMeta, dataLen int64)
	}{
		{"a Len past the end", func(m *TableMeta, n int64) { cm := &m.Groups[2].Cols[1]; cm.Len = n - cm.Offset + 1 }},
		{"a null chunk's Len past the end", func(m *TableMeta, n int64) { cm := &m.Groups[0].NullCols[4]; cm.Len = n - cm.Offset + 1 }},
		{"a negative Offset", func(m *TableMeta, _ int64) { m.Groups[1].Cols[0].Offset = -1 }},
		{"a missing chunk", func(m *TableMeta, _ int64) { m.Groups[1].Cols = m.Groups[1].Cols[:4] }},
		{"a missing null chunk", func(m *TableMeta, _ int64) { m.Groups[0].NullCols = m.Groups[0].NullCols[:4] }},
		{"a negative group", func(m *TableMeta, _ int64) { m.Groups[0].Rows, m.Groups[1].Rows = -1, m.Groups[1].Rows+51 }},
		{"rows past the table's", func(m *TableMeta, _ int64) { m.Rows-- }},
	} {
		tbl := buildTestTable(t, 123, 50)
		c.edit(&tbl.Meta, tbl.DataSize())
		path := filepath.Join(t.TempDir(), "corrupt.vwt")
		if err := tbl.Save(path); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: Open returned %v, want an error naming %s", c.name, err, path)
		}
	}
}

func writeFile(path string, data []byte) error {
	return osWriteFile(path, data)
}

func TestScannerFullScan(t *testing.T) {
	tbl := buildTestTable(t, 300, 128)
	sc := NewScanner(tbl, []int{0, 1}, nil, nil, 100)
	var seen int64
	next := int64(0)
	for {
		vecs, n, err := sc.Next()
		pos := sc.BasePos()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if pos != next {
			t.Fatalf("position %d, want %d", pos, next)
		}
		for i := 0; i < n; i++ {
			if vecs[0].I64[i] != pos+int64(i) {
				t.Fatalf("value at %d wrong", pos+int64(i))
			}
		}
		next = pos + int64(n)
		seen += int64(n)
	}
	if seen != 300 {
		t.Fatalf("scanned %d rows", seen)
	}
	// Batches must respect both vector size and group boundary:
	// group 0 has 128 rows → batches 100 + 28.
	sc.Reset()
	_, n1, _ := sc.Next()
	_, n2, _ := sc.Next()
	if n1 != 100 || n2 != 28 {
		t.Fatalf("batch split %d/%d, want 100/28", n1, n2)
	}
}

func TestScannerPruning(t *testing.T) {
	tbl := buildTestTable(t, 300, 100)
	// Prune groups whose id range is entirely below 150 (groups 0).
	pruned := 0
	prune := func(g *GroupMeta) bool {
		if g.Cols[0].MaxI64 < 150 {
			pruned++
			return true
		}
		return false
	}
	sc := NewScanner(tbl, []int{0}, nil, &Skip{Refute: prune, Col: -1}, 1024)
	var rows int64
	var firstPos int64 = -1
	for {
		_, n, err := sc.Next()
		pos := sc.BasePos()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if firstPos == -1 {
			firstPos = pos
		}
		rows += int64(n)
	}
	if pruned != 1 {
		t.Fatalf("pruned %d groups, want 1", pruned)
	}
	if rows != 200 {
		t.Fatalf("scanned %d rows after pruning", rows)
	}
	// Positions must still be global: first unpruned row is 100.
	if firstPos != 100 {
		t.Fatalf("first pos %d, want 100", firstPos)
	}
}

func TestReadAllColumn(t *testing.T) {
	tbl := buildTestTable(t, 250, 100)
	v, err := tbl.ReadAllColumn(0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 250 || v.I64[249] != 249 {
		t.Fatal("ReadAllColumn wrong")
	}
	nv, err := tbl.ReadAllColumn(4)
	if err != nil {
		t.Fatal(err)
	}
	if nv.Nulls == nil || !nv.Nulls[0] || nv.Nulls[1] {
		t.Fatal("ReadAllColumn nullable wrong")
	}
}

func TestEmptyTable(t *testing.T) {
	b := NewBuilder("empty", testSchema(), 100)
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 0 || tbl.Groups() != 0 {
		t.Fatal("empty table wrong")
	}
	sc := NewScanner(tbl, []int{0}, nil, nil, 0)
	_, n, err := sc.Next()
	if err != nil || n != 0 {
		t.Fatal("empty scan must return 0")
	}
	path := filepath.Join(t.TempDir(), "empty.vwt")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err != nil {
		t.Fatal(err)
	}
}

func TestDataSizeSmallerThanPlain(t *testing.T) {
	tbl := buildTestTable(t, 10000, 4096)
	// 5 columns × 10000 rows; plain int64+f64 alone would be 160KB.
	if tbl.DataSize() > 100_000 {
		t.Fatalf("compressed size %d suspiciously large", tbl.DataSize())
	}
}

// cachedFetcher decodes each chunk once, like the buffer pool on a warm
// database.
type cachedFetcher map[[2]int]*vector.Vector

func (f cachedFetcher) FetchColumn(t *Table, g, c int) (*vector.Vector, error) {
	if v, ok := f[[2]int{g, c}]; ok {
		return v, nil
	}
	v, err := t.DecodeChunk(g, c)
	f[[2]int{g, c}] = v
	return v, err
}

// TestScannerCarriesDictCodes: a dictionary-coded VARCHAR chunk decodes
// coded, and every scanner batch, cut across vector and group boundaries,
// views its codes and no strings; other columns carry no codes. Through
// DecodedFetcher the same batches hold strings and no codes.
func TestScannerCarriesDictCodes(t *testing.T) {
	tbl := buildTestTable(t, 300, 128)
	for g := range tbl.Groups() {
		if c := tbl.Meta.Groups[g].Cols[2].Codec; c != compress.CodecDict {
			t.Fatalf("group %d flag coded %v", g, c)
		}
	}
	for _, fetch := range []ChunkFetcher{nil, DecodedFetcher{}} {
		sc := NewScanner(tbl, []int{0, 2, 4}, fetch, nil, 100)
		coded, rows := fetch == nil, 0
		for {
			vecs, n, err := sc.Next()
			pos := sc.BasePos()
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			flag, note := vecs[1], vecs[2]
			if vecs[0].Codes != nil || flag.Len() != n || note.Len() != n {
				t.Fatalf("%T: batch at %d of %d rows: flag %d, note %d", fetch, pos, n, flag.Len(), note.Len())
			}
			for _, v := range []*vector.Vector{flag, note} {
				if coded != (v.Codes != nil && v.Str == nil) || !coded && (v.Dict() != nil || len(v.Str) != n) {
					t.Fatalf("%T: batch at %d: %d codes, %d strings", fetch, pos, len(v.Codes), len(v.Str))
				}
			}
			for i := range n {
				if got, want := flag.StrAt(i), []string{"A", "B", "C"}[(int(pos)+i)%3]; got != want {
					t.Fatalf("%T: row %d reads %q, want %q", fetch, int(pos)+i, got, want)
				}
				want := "note"
				if (int(pos)+i)%3 == 0 {
					want = "" // a NULL's safe value
				}
				if got := note.StrAt(i); got != want {
					t.Fatalf("%T: row %d: note %q, want %q", fetch, int(pos)+i, got, want)
				}
			}
			rows += n
		}
		if rows != 300 {
			t.Fatalf("%T: scanned %d rows", fetch, rows)
		}
	}
}

// scanAll drains sc from its start and returns the rows read.
func scanAll(t testing.TB, sc *Scanner) int {
	sc.Reset()
	rows := 0
	for {
		_, n, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return rows
		}
		rows += n
	}
}

// TestScannerNextNoSteadyStateAllocs: over cached chunks, Next re-slices
// the scanner's own vector headers instead of allocating a batch. (A run
// is a whole scan, 25 batches: AllocsPerRun rounds down.)
func TestScannerNextNoSteadyStateAllocs(t *testing.T) {
	tbl := buildTestTable(t, 3000, 1000)
	sc := NewScanner(tbl, []int{0, 1, 2, 4}, cachedFetcher{}, nil, 128)
	scanAll(t, sc) // every chunk cached
	if allocs := testing.AllocsPerRun(20, func() { scanAll(t, sc) }); allocs != 0 {
		t.Fatalf("a scan of 25 batches allocates %.0f times", allocs)
	}
}

// BenchmarkScannerNext scans a warm table of four columns, a
// dictionary-coded one among them, in 48 batches an op, and reports
// ns/row (the bench job fails on any allocs/op).
func BenchmarkScannerNext(b *testing.B) {
	tbl := buildTestTable(b, 3*DefaultGroupRows/4, DefaultGroupRows/4)
	sc := NewScanner(tbl, []int{0, 1, 2, 4}, cachedFetcher{}, nil, 0)
	scanAll(b, sc) // decode and cache every chunk
	if v, err := sc.fetch.FetchColumn(tbl, 0, 2); err != nil || v.Codes == nil || v.Str != nil {
		b.Fatalf("flag not cached coded (err %v)", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows += scanAll(b, sc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

// q6Table builds a table shaped like Q6's lineitem columns: qty (50
// values) and disc (11 values) DOUBLEs, dictionary-coded, a distinct
// price DOUBLE, plain, and a BIGINT ship date.
func q6Table(t testing.TB, rows, groupRows int) *Table {
	t.Helper()
	b := NewBuilder("q6", vtypes.NewSchema(vtypes.Column{Name: "qty", Kind: vtypes.KindF64},
		vtypes.Column{Name: "disc", Kind: vtypes.KindF64}, vtypes.Column{Name: "price", Kind: vtypes.KindF64},
		vtypes.Column{Name: "ship", Kind: vtypes.KindI64}), groupRows)
	for i := range rows {
		if err := b.AppendRow(vtypes.Row{vtypes.F64Value(float64(i*7%50 + 1)), vtypes.F64Value(float64(i*3%11) / 100),
			vtypes.F64Value(float64(i) * 1.25), vtypes.I64Value(int64(i / 3))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestScannerCarriesF64Codes: a DOUBLE chunk of few values decodes coded
// (qty and disc) and one of many plain (price); every scanner batch, cut
// across vector and group boundaries, views the codes and no values, and
// reads each row through the dictionary. Through DecodedFetcher the same
// batches hold values and no codes.
func TestScannerCarriesF64Codes(t *testing.T) {
	tbl := q6Table(t, 384, 128)
	for g := range tbl.Groups() {
		for c, want := range []compress.Codec{compress.CodecDictF64, compress.CodecDictF64, compress.CodecPlainF64} {
			if got := tbl.Meta.Groups[g].Cols[c].Codec; got != want {
				t.Fatalf("group %d column %d coded %v, want %v", g, c, got, want)
			}
		}
	}
	for _, fetch := range []ChunkFetcher{nil, DecodedFetcher{}} {
		sc := NewScanner(tbl, []int{0, 1, 2}, fetch, nil, 100)
		coded, rows := fetch == nil, 0
		for {
			vecs, n, err := sc.Next()
			pos := sc.BasePos()
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for c, v := range vecs {
				if v.Len() != n || (coded && c < 2) != (v.Codes != nil && v.F64 == nil) || v.Codes == nil && len(v.F64) != n {
					t.Fatalf("%T: batch at %d of %d rows: column %d has %d codes, %d values", fetch, pos, n, c, len(v.Codes), len(v.F64))
				}
			}
			for i := range n {
				r := int(pos) + i
				if vecs[0].F64At(i) != float64(r*7%50+1) || vecs[1].F64At(i) != float64(r*3%11)/100 || vecs[2].F64At(i) != float64(r)*1.25 {
					t.Fatalf("%T: row %d reads %v %v %v", fetch, r, vecs[0].Get(i), vecs[1].Get(i), vecs[2].Get(i))
				}
			}
			rows += n
		}
		if rows != 384 {
			t.Fatalf("%T: scanned %d rows", fetch, rows)
		}
	}
	// 44 rows of 44 values code in no fewer bytes than plain: plain.
	if c := q6Table(t, 44, 128).Meta.Groups[0].Cols[0].Codec; c != compress.CodecPlainF64 {
		t.Fatalf("44 distinct of 44 rows coded %v", c)
	}
}

// BenchmarkScannerNextCodedF64 scans a warm Q6-shaped table, two coded
// DOUBLE columns among its four, in 48 batches an op, and reports ns/row
// (the bench job fails on any allocs/op).
func BenchmarkScannerNextCodedF64(b *testing.B) {
	tbl := q6Table(b, 3*DefaultGroupRows/4, DefaultGroupRows/4)
	sc := NewScanner(tbl, []int{0, 1, 2, 3}, cachedFetcher{}, nil, 0)
	scanAll(b, sc) // decode and cache every chunk
	if v, err := sc.fetch.FetchColumn(tbl, 0, 1); err != nil || v.Codes == nil || v.F64 != nil {
		b.Fatalf("disc not cached coded (err %v)", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows += scanAll(b, sc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

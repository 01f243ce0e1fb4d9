package matengine

import (
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

func buildCat(t *testing.T, rows int) *catalog.Catalog {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindF64},
	)
	b := storage.NewBuilder("t", schema, 64)
	for i := 0; i < rows; i++ {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), vtypes.F64Value(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Put(tbl)
	return cat
}

func scanT() *algebra.ScanNode {
	return &algebra.ScanNode{Table: "t", Cols: []int{0, 1},
		Out: vtypes.NewSchema(
			vtypes.Column{Name: "k", Kind: vtypes.KindI64},
			vtypes.Column{Name: "v", Kind: vtypes.KindF64})}
}

func TestScanMaterializesWholeColumns(t *testing.T) {
	cat := buildCat(t, 500)
	rel, err := Exec(scanT(), cat)
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 500 || len(rel.Cols) != 2 || rel.Cols[0].Len() != 500 {
		t.Fatalf("scan rel: %d rows %d cols", rel.N, len(rel.Cols))
	}
}

func TestMatBytesAccountsIntermediates(t *testing.T) {
	cat := buildCat(t, 1000)
	ResetMatBytes()
	plan := &algebra.SelectNode{
		Input: scanT(),
		Pred:  &algebra.Cmp{Op: algebra.CmpLt, L: &algebra.ColRef{Idx: 0, K: vtypes.KindI64}, R: &algebra.Lit{Val: vtypes.I64Value(500)}},
	}
	rel, err := Exec(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 500 {
		t.Fatalf("select rel: %d", rel.N)
	}
	// Base scan (1000×16B) + mask (1000B) + filtered copy (500×16B):
	// the counter must register at least the table-sized intermediates.
	if MatBytes() < 16_000 {
		t.Fatalf("MatBytes = %d, expected table-scale intermediates", MatBytes())
	}
	before := MatBytes()
	ResetMatBytes()
	if MatBytes() != 0 || before == 0 {
		t.Fatal("ResetMatBytes broken")
	}
}

// A boolean literal filter: TRUE keeps every row, FALSE and NULL none.
func TestBoolLiteralSelect(t *testing.T) {
	cat := buildCat(t, 100)
	for _, c := range []struct {
		val  vtypes.Value
		want int
	}{
		{vtypes.BoolValue(true), 100},
		{vtypes.BoolValue(false), 0},
		{vtypes.NullValue(vtypes.KindBool), 0},
	} {
		rel, err := Exec(&algebra.SelectNode{Input: scanT(), Pred: &algebra.Lit{Val: c.val}}, cat)
		if err != nil {
			t.Fatalf("WHERE %v: %v", c.val, err)
		}
		if rel.N != c.want {
			t.Errorf("WHERE %v: %d rows, want %d", c.val, rel.N, c.want)
		}
	}
}

func TestLimitAndUnion(t *testing.T) {
	cat := buildCat(t, 100)
	lim := &algebra.LimitNode{Input: scanT(), N: 7}
	rel, err := Exec(lim, cat)
	if err != nil || rel.N != 7 {
		t.Fatalf("limit: %d %v", rel.N, err)
	}
	// Limit larger than input passes through.
	lim2 := &algebra.LimitNode{Input: scanT(), N: 1000}
	rel, err = Exec(lim2, cat)
	if err != nil || rel.N != 100 {
		t.Fatalf("limit passthrough: %d %v", rel.N, err)
	}
	union := &algebra.UnionAllNode{Inputs: []algebra.Node{scanT(), scanT()}}
	rel, err = Exec(union, cat)
	if err != nil || rel.N != 200 {
		t.Fatalf("union: %d %v", rel.N, err)
	}
}

func TestRunBoxesRows(t *testing.T) {
	cat := buildCat(t, 5)
	rows, err := Run(scanT(), cat)
	if err != nil || len(rows) != 5 || rows[4][0].I64 != 4 {
		t.Fatalf("run: %v %v", rows, err)
	}
}

func TestRowIDScanRejected(t *testing.T) {
	scan := scanT()
	scan.RowID = true
	if _, err := Exec(scan, buildCat(t, 10)); err == nil {
		t.Fatal("matengine must reject a row-id scan, not ignore the flag")
	}
}

func TestRemoteLeafRejected(t *testing.T) {
	leaf := &algebra.RemoteNode{Out: scanT().Out}
	if _, err := Exec(&algebra.LimitNode{Input: leaf, N: 1}, buildCat(t, 10)); err == nil {
		t.Fatal("matengine must reject a remote leaf: only the coordinator's compiler can bind one")
	}
}

// TestScanReadsStrings: the materializing engine, an oracle for the
// vectorized one, scans through storage.DecodedFetcher: the columns it
// materializes are appended from vectors of strings and DOUBLEs, never
// from codes, over chunks the vectorized engine reads coded.
func TestScanReadsStrings(t *testing.T) {
	schema := vtypes.NewSchema(vtypes.Column{Name: "flag", Kind: vtypes.KindStr}, vtypes.Column{Name: "q", Kind: vtypes.KindF64})
	b := storage.NewBuilder("f", schema, 100)
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
	cat := catalog.New()
	cat.Put(tbl)
	rel, err := execScan(&algebra.ScanNode{Table: "f", Cols: []int{0, 1}, Out: schema}, cat)
	if err != nil {
		t.Fatal(err)
	}
	v := rel.Cols[0]
	if rel.N != 300 || v.Codes != nil || len(v.Str) != 300 {
		t.Fatalf("%d rows: %d codes, %d strings", rel.N, len(v.Codes), len(v.Str))
	}
	for i, s := range v.Str {
		if s != flags[i%3] {
			t.Fatalf("row %d: %q", i, s)
		}
	}
	if q := rel.Cols[1]; q.Codes != nil || len(q.F64) != 300 || q.F64[7] != 3 {
		t.Fatalf("q: %d codes, %d values", len(q.Codes), len(q.F64))
	}
}

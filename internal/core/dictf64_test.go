package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// f64Table builds two row groups of 300 rows over (v DOUBLE, x BIGINT):
// v cycles −0, +0, a NaN, 1.5 and +Inf, from a different value in each
// group, so each group's dictionary codes them differently.
func f64Table(t testing.TB) *storage.Table {
	t.Helper()
	vals := []float64{math.Copysign(0, -1), 0, math.Float64frombits(0x7ff8000000000005), 1.5, math.Inf(1)}
	b := storage.NewBuilder("f", vtypes.NewSchema(vtypes.Column{Name: "v", Kind: vtypes.KindF64},
		vtypes.Column{Name: "x", Kind: vtypes.KindI64}), 300)
	for g := range 2 {
		for i := range 300 {
			if err := b.AppendRow(vtypes.Row{vtypes.F64Value(vals[(i+g)%5]), vtypes.I64Value(int64(g*300 + i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for g := range 2 {
		if v, err := tbl.DecodeChunk(g, 0); err != nil || len(v.DictF64()) != 5 || v.F64 != nil {
			t.Fatalf("group %d: v decodes to %d entries and %d values (err %v)", g, len(v.DictF64()), len(v.F64), err)
		}
	}
	return tbl
}

// drainRows returns every live row of op as the bit patterns of its
// DOUBLE cells and its other cells, one string a row, in order.
func drainRows(t *testing.T, op Operator) []string {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var out []string
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		for k := range b.N {
			out = append(out, rowBits(b, b.LiveIndex(k)))
		}
	}
}

func rowBits(b *vector.Batch, i int) string {
	s := ""
	for _, v := range b.Vecs {
		if v.Kind == vtypes.KindF64 {
			s += fmt.Sprintf("%x|", math.Float64bits(v.F64At(i)))
		} else {
			s += v.Get(i).String() + "|"
		}
	}
	return s
}

// TestCodedF64ReadThrough: the operators that copy a coded DOUBLE read
// each row's bit pattern through the dictionary. The merge scan copies the
// batches its deltas touch (a modification, an insert, a delete) and
// passes the others on coded; Xchg's copyBatch copies a coded batch, dense
// and under a selection. Each must give back the rows a scan of the
// decoded table gives, bit for bit.
func TestCodedF64ReadThrough(t *testing.T) {
	tbl := f64Table(t)
	p := pdt.New(tbl.Schema(), tbl.Rows())
	for _, err := range []error{
		p.Modify(10, 0, vtypes.F64Value(2.25)),
		p.Modify(11, 0, vtypes.F64Value(math.Copysign(0, -1))),
		p.Insert(20, vtypes.Row{vtypes.F64Value(math.Float64frombits(0xfff8000000000009)), vtypes.I64Value(-1)}),
		p.Delete(330),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, vecSize := range []int{3, 1024} {
		scan := func(fetch storage.ChunkFetcher) []string {
			return drainRows(t, NewScan(tbl, []int{0, 1}, ScanOpts{Fetch: fetch, VecSize: vecSize, Layers: []*pdt.PDT{p}}))
		}
		want := scan(storage.DecodedFetcher{})
		if got := scan(nil); !slices.Equal(got, want) || len(want) != 600 {
			t.Fatalf("vec=%d: merge scan of codes read %d rows, differing from %d decoded", vecSize, len(got), len(want))
		}
	}

	sc := storage.NewScanner(tbl, []int{0, 1}, nil, nil, 0)
	vecs, n, err := sc.Next()
	if err != nil || vecs[0].Codes == nil {
		t.Fatalf("scanner handed out %d rows, coded %v (err %v)", n, vecs[0].Codes != nil, err)
	}
	b := &vector.Batch{Vecs: vecs}
	b.SetDense(n)
	var want []string
	for i := range n {
		want = append(want, rowBits(b, i))
	}
	for _, sel := range [][]int32{nil, {0, 2, 3, 7, 299}} {
		b.Sel, b.N = sel, n
		if sel != nil {
			b.N = len(sel)
		}
		out := copyBatch(b)
		if out.Vecs[0].Codes != nil || out.Sel != nil || out.N != b.N {
			t.Fatalf("copyBatch left codes %v, a selection %v, %d rows of %d", out.Vecs[0].Codes != nil, out.Sel, out.N, b.N)
		}
		for k := range b.N {
			if got := rowBits(out, k); got != want[b.LiveIndex(k)] {
				t.Fatalf("copyBatch row %d: %s, want %s", k, got, want[b.LiveIndex(k)])
			}
		}
	}
}

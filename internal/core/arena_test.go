package core

import (
	"fmt"
	"slices"
	"testing"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// arenaTable builds (s VARCHAR, x BIGINT) in two groups of 300 rows. s is
// distinct, so every chunk is plain and decodes to an arena; it is empty
// every seventh row and on each group's last row, and multibyte every
// fifth.
func arenaTable(t testing.TB) *storage.Table {
	t.Helper()
	b := storage.NewBuilder("a", vtypes.NewSchema(vtypes.Column{Name: "s", Kind: vtypes.KindStr},
		vtypes.Column{Name: "x", Kind: vtypes.KindI64}), 300)
	for i := range 600 {
		s := fmt.Sprintf("s%03d", i)
		switch {
		case i%7 == 0 || i%300 == 299:
			s = ""
		case i%5 == 0:
			s = fmt.Sprintf("日本%dé", i)
		}
		if err := b.AppendRow(vtypes.Row{vtypes.StrValue(s), vtypes.I64Value(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for g := range 2 {
		if v, err := tbl.DecodeChunk(g, 0); err != nil || v.Off == nil {
			t.Fatalf("group %d: s is not an arena (err %v)", g, err)
		}
	}
	return tbl
}

// TestArenaReadThrough: the operators that copy an arena VARCHAR read
// each row out of its bytes. The merge scan copies the batches its deltas
// touch (modifications, one to the empty string, an insert, a delete)
// and passes the others on as arenas; Xchg's copyBatch copies an arena
// batch, dense and under a selection; colBuf.append stores an arena's
// live rows. Each must give back the rows a scan of the decoded table
// gives.
func TestArenaReadThrough(t *testing.T) {
	tbl := arenaTable(t)
	p := pdt.New(tbl.Schema(), tbl.Rows())
	for _, err := range []error{
		p.Modify(10, 0, vtypes.StrValue("modified")),
		p.Modify(12, 0, vtypes.StrValue("")),
		p.Insert(20, vtypes.Row{vtypes.StrValue("本"), vtypes.I64Value(-1)}),
		p.Delete(330),
		p.Modify(598, 0, vtypes.StrValue("last but one")),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, vecSize := range []int{1, 3, 1024} {
		scan := func(fetch storage.ChunkFetcher) []string {
			return drainRows(t, NewScan(tbl, []int{0, 1}, ScanOpts{Fetch: fetch, VecSize: vecSize, Layers: []*pdt.PDT{p}}))
		}
		want := scan(storage.DecodedFetcher{})
		if got := scan(nil); !slices.Equal(got, want) || len(want) != 600 {
			t.Fatalf("vec=%d: merge scan of arenas read %d rows, differing from %d decoded", vecSize, len(got), len(want))
		}
	}

	sc := storage.NewScanner(tbl, []int{0, 1}, nil, nil, 0)
	vecs, n, err := sc.Next()
	if err != nil || vecs[0].Off == nil {
		t.Fatalf("scanner handed out %d rows, arena %v (err %v)", n, vecs[0].Off != nil, err)
	}
	b := &vector.Batch{Vecs: vecs}
	b.SetDense(n)
	var want []string
	for i := range n {
		want = append(want, rowBits(b, i))
	}
	for _, sel := range [][]int32{nil, {0, 2, 5, 7, 298, 299}} {
		b.Sel, b.N = sel, n
		if sel != nil {
			b.N = len(sel)
		}
		out := copyBatch(b)
		if out.Vecs[0].Off != nil || out.Sel != nil || out.N != b.N {
			t.Fatalf("copyBatch left an arena %v, a selection %v, %d rows of %d", out.Vecs[0].Off != nil, out.Sel, out.N, b.N)
		}
		for k := range b.N {
			if got := rowBits(out, k); got != want[b.LiveIndex(k)] {
				t.Fatalf("copyBatch row %d: %s, want %s", k, got, want[b.LiveIndex(k)])
			}
		}

		c := &colBuf{kind: vtypes.KindStr}
		c.append(vecs[0], b.Sel, b.N)
		c.append(vecs[0], b.Sel, b.N)
		idx := make([]int32, 2*b.N)
		for k := range idx {
			idx[k] = int32(len(idx) - 1 - k)
		}
		dst := vector.New(vtypes.KindStr, len(idx))
		c.gather(dst, nil, idx, len(idx))
		for k, r := range idx {
			if got, want := dst.Str[k], vecs[0].StrAt(b.LiveIndex(int(r)%b.N)); got != want {
				t.Fatalf("colBuf row %d: %q, want %q", r, got, want)
			}
		}
	}
}

package pdt

import (
	"fmt"
	"math/rand"
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

func testSchema() *vtypes.Schema {
	return vtypes.NewSchema(
		vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "name", Kind: vtypes.KindStr},
	)
}

func mkRow(id int64, name string) vtypes.Row {
	return vtypes.Row{vtypes.I64Value(id), vtypes.StrValue(name)}
}

// allCols lists every column of p's schema: the projection of a scan
// reading whole rows.
func allCols(p *PDT) []int {
	cols := make([]int, p.Schema().Len())
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// stableRows builds the stable image [0..n) with names "s<i>".
func stableRows(n int) []vtypes.Row {
	out := make([]vtypes.Row, n)
	for i := range out {
		out[i] = mkRow(int64(i), fmt.Sprintf("s%d", i))
	}
	return out
}

// stableSource exposes stable rows as a RowSource serving batches of
// at most batch rows.
func stableSource(rows []vtypes.Row, batch int) RowSource {
	src := &vecSource{ids: make([]int64, len(rows)), names: make([]string, len(rows)), batch: batch}
	for i, r := range rows {
		src.ids[i], src.names[i] = r[0].I64, r[1].Str
	}
	return src
}

type vecSource struct {
	ids   []int64
	names []string
	batch int
}

func (s *vecSource) Next() ([]*vector.Vector, int, error) {
	n := min(s.batch, len(s.ids))
	if n == 0 {
		return nil, 0, nil
	}
	out := []*vector.Vector{{Kind: vtypes.KindI64, I64: s.ids[:n]}, {Kind: vtypes.KindStr, Str: s.names[:n]}}
	s.ids, s.names = s.ids[n:], s.names[n:]
	return out, n, nil
}

// applyNaive replays the PDT-visible operations on a plain row slice —
// the reference model for every test.
type naiveImage struct {
	rows []vtypes.Row
}

func (n *naiveImage) insert(rid int64, row vtypes.Row) {
	n.rows = append(n.rows, nil)
	copy(n.rows[rid+1:], n.rows[rid:])
	n.rows[rid] = row.Clone()
}
func (n *naiveImage) delete(rid int64) {
	n.rows = append(n.rows[:rid], n.rows[rid+1:]...)
}
func (n *naiveImage) modify(rid int64, col int, v vtypes.Value) {
	n.rows[rid] = n.rows[rid].Clone()
	n.rows[rid][col] = v
}

func checkImage(t *testing.T, p *PDT, stable []vtypes.Row, want []vtypes.Row) {
	t.Helper()
	if p.VisibleRows() != int64(len(want)) {
		t.Fatalf("VisibleRows = %d, want %d", p.VisibleRows(), len(want))
	}
	got, err := Materialize(NewMergeScan(stableSource(stable, 7), p, allCols(p), 5), p.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !got[i][c].Equal(want[i][c]) {
				t.Fatalf("row %d col %d: got %v want %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

func TestEmptyPDTPassthrough(t *testing.T) {
	stable := stableRows(10)
	p := New(testSchema(), 10)
	if !p.Empty() || p.Len() != 0 {
		t.Fatal("fresh PDT must be empty")
	}
	checkImage(t, p, stable, stable)
}

func TestInsertAtFrontMiddleEnd(t *testing.T) {
	stable := stableRows(5)
	p := New(testSchema(), 5)
	img := &naiveImage{rows: append([]vtypes.Row{}, stable...)}

	for _, op := range []struct {
		rid  int64
		name string
	}{{0, "front"}, {3, "middle"}, {7, "end"}} {
		row := mkRow(100+op.rid, op.name)
		if err := p.Insert(op.rid, row); err != nil {
			t.Fatal(err)
		}
		img.insert(op.rid, row)
	}
	checkImage(t, p, stable, img.rows)
}

func TestAppend(t *testing.T) {
	stable := stableRows(3)
	p := New(testSchema(), 3)
	img := &naiveImage{rows: append([]vtypes.Row{}, stable...)}
	for i := 0; i < 5; i++ {
		row := mkRow(int64(100+i), "app")
		if err := p.Append(row); err != nil {
			t.Fatal(err)
		}
		img.insert(int64(len(img.rows)), row)
	}
	checkImage(t, p, stable, img.rows)
}

func TestDeleteStableAndInserted(t *testing.T) {
	stable := stableRows(6)
	p := New(testSchema(), 6)
	img := &naiveImage{rows: append([]vtypes.Row{}, stable...)}

	// Delete stable row 2.
	if err := p.Delete(2); err != nil {
		t.Fatal(err)
	}
	img.delete(2)
	// Insert then delete the inserted row (annihilation).
	if err := p.Insert(1, mkRow(99, "temp")); err != nil {
		t.Fatal(err)
	}
	img.insert(1, mkRow(99, "temp"))
	if p.Len() != 2 {
		t.Fatalf("len %d", p.Len())
	}
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	img.delete(1)
	if p.Len() != 1 {
		t.Fatalf("annihilation should remove the Ins entry, len=%d", p.Len())
	}
	checkImage(t, p, stable, img.rows)
}

func TestModifyStableAndInserted(t *testing.T) {
	stable := stableRows(4)
	p := New(testSchema(), 4)
	img := &naiveImage{rows: append([]vtypes.Row{}, stable...)}

	if err := p.Modify(2, 1, vtypes.StrValue("patched")); err != nil {
		t.Fatal(err)
	}
	img.modify(2, 1, vtypes.StrValue("patched"))
	// Second modify of same row merges into the same entry.
	if err := p.Modify(2, 0, vtypes.I64Value(222)); err != nil {
		t.Fatal(err)
	}
	img.modify(2, 0, vtypes.I64Value(222))
	if p.Len() != 1 {
		t.Fatalf("mods must merge into one entry, len=%d", p.Len())
	}
	// Re-modify same column overwrites.
	if err := p.Modify(2, 0, vtypes.I64Value(333)); err != nil {
		t.Fatal(err)
	}
	img.modify(2, 0, vtypes.I64Value(333))
	if p.Len() != 1 {
		t.Fatal("re-mod must not add entries")
	}
	// Modify an inserted row edits it in place.
	if err := p.Insert(0, mkRow(50, "ins")); err != nil {
		t.Fatal(err)
	}
	img.insert(0, mkRow(50, "ins"))
	if err := p.Modify(0, 1, vtypes.StrValue("ins2")); err != nil {
		t.Fatal(err)
	}
	img.modify(0, 1, vtypes.StrValue("ins2"))
	if p.Len() != 2 {
		t.Fatalf("modify-of-insert must edit in place, len=%d", p.Len())
	}
	checkImage(t, p, stable, img.rows)
}

func TestDeleteSupersedesModify(t *testing.T) {
	stable := stableRows(3)
	p := New(testSchema(), 3)
	if err := p.Modify(1, 1, vtypes.StrValue("x")); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Fatalf("delete must drop the mod entry, len=%d", p.Len())
	}
	img := &naiveImage{rows: append([]vtypes.Row{}, stable...)}
	img.delete(1)
	checkImage(t, p, stable, img.rows)
}

func TestErrorsOnBadPositions(t *testing.T) {
	p := New(testSchema(), 3)
	if err := p.Insert(5, mkRow(1, "x")); err == nil {
		t.Fatal("insert past end must error")
	}
	if err := p.Insert(-1, mkRow(1, "x")); err == nil {
		t.Fatal("negative insert must error")
	}
	if err := p.Delete(3); err == nil {
		t.Fatal("delete past end must error")
	}
	if err := p.Modify(-1, 0, vtypes.I64Value(0)); err == nil {
		t.Fatal("negative modify must error")
	}
	if err := p.Modify(0, 9, vtypes.I64Value(0)); err == nil {
		t.Fatal("bad column must error")
	}
	if err := p.Insert(0, vtypes.Row{vtypes.I64Value(1)}); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

// TestCloneIsDeep: a Clone shares Ins rows and Mods lists with its
// original, and a modify through either PDT writes a copy, so the other
// keeps its values.
func TestCloneIsDeep(t *testing.T) {
	p := New(testSchema(), 3)
	if err := p.Insert(0, mkRow(100, "ins")); err != nil {
		t.Fatal(err)
	}
	if err := p.Modify(2, 1, vtypes.StrValue("mod")); err != nil { // stable 1
		t.Fatal(err)
	}
	c := p.Clone()
	if err := c.Modify(0, 1, vtypes.StrValue("clone-ins")); err != nil {
		t.Fatal(err)
	}
	if err := c.Modify(2, 1, vtypes.StrValue("clone-mod")); err != nil {
		t.Fatal(err)
	}
	if err := p.Modify(2, 0, vtypes.I64Value(7)); err != nil {
		t.Fatal(err)
	}
	stable := stableRows(3)
	for _, tc := range []struct {
		name string
		p    *PDT
		want []vtypes.Row
	}{
		{"original", p, []vtypes.Row{mkRow(100, "ins"), mkRow(0, "s0"), mkRow(7, "mod"), mkRow(2, "s2")}},
		{"clone", c, []vtypes.Row{mkRow(100, "clone-ins"), mkRow(0, "s0"), mkRow(1, "clone-mod"), mkRow(2, "s2")}},
	} {
		got, err := Materialize(NewMergeScan(stableSource(stable, 8), tc.p, allCols(tc.p), 8), testSchema())
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.want {
			for col := range tc.want[i] {
				if !got[i][col].Equal(tc.want[i][col]) {
					t.Fatalf("%s row %d: %v, want %v", tc.name, i, got[i], tc.want[i])
				}
			}
		}
	}
}

// TestRandomOpsAgainstModel is the core property test: hundreds of
// random Insert/Delete/Modify operations must keep the PDT image
// identical to a naive row-slice model, across several stable sizes and
// chunk-split regimes.
func TestRandomOpsAgainstModel(t *testing.T) {
	for _, stableN := range []int{0, 1, 17, 300} {
		stableN := stableN
		t.Run(fmt.Sprintf("stable%d", stableN), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(stableN) + 5))
			stable := stableRows(stableN)
			p := New(testSchema(), int64(stableN))
			img := &naiveImage{rows: append([]vtypes.Row{}, stable...)}
			for op := 0; op < 900; op++ {
				n := int64(len(img.rows))
				switch r := rng.Intn(10); {
				case r < 4 || n == 0: // insert
					rid := int64(rng.Intn(int(n) + 1))
					row := mkRow(int64(1000+op), fmt.Sprintf("i%d", op))
					if err := p.Insert(rid, row); err != nil {
						t.Fatalf("op %d insert(%d): %v", op, rid, err)
					}
					img.insert(rid, row)
				case r < 7: // delete
					rid := int64(rng.Intn(int(n)))
					if err := p.Delete(rid); err != nil {
						t.Fatalf("op %d delete(%d): %v", op, rid, err)
					}
					img.delete(rid)
				default: // modify
					rid := int64(rng.Intn(int(n)))
					col := rng.Intn(2)
					var v vtypes.Value
					if col == 0 {
						v = vtypes.I64Value(int64(op))
					} else {
						v = vtypes.StrValue(fmt.Sprintf("m%d", op))
					}
					if err := p.Modify(rid, col, v); err != nil {
						t.Fatalf("op %d modify(%d,%d): %v", op, rid, col, err)
					}
					img.modify(rid, col, v)
				}
				if p.VisibleRows() != int64(len(img.rows)) {
					t.Fatalf("op %d: visible %d != model %d", op, p.VisibleRows(), len(img.rows))
				}
				// Full image check periodically (it is O(n)).
				if op%150 == 149 {
					checkImage(t, p, stable, img.rows)
					checkCounts(t, fmt.Sprintf("op %d", op), p)
				}
			}
			checkImage(t, p, stable, img.rows)
		})
	}
}

func TestMergeScanBatchBoundaries(t *testing.T) {
	// Insertions at batch boundaries and a delete spanning a refill.
	stable := stableRows(20)
	p := New(testSchema(), 20)
	img := &naiveImage{rows: append([]vtypes.Row{}, stable...)}
	for _, rid := range []int64{0, 5, 10, 20} {
		row := mkRow(rid+500, "b")
		if err := p.Insert(rid, row); err != nil {
			t.Fatal(err)
		}
		img.insert(rid, row)
	}
	if err := p.Delete(8); err != nil {
		t.Fatal(err)
	}
	img.delete(8)
	// Exercise several batch-size combinations.
	for _, srcBatch := range []int{1, 3, 7, 64} {
		for _, outBatch := range []int{1, 4, 9, 64} {
			got, err := Materialize(NewMergeScan(stableSource(stable, srcBatch), p, allCols(p), outBatch), p.Schema())
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(img.rows) {
				t.Fatalf("src=%d out=%d: %d rows, want %d", srcBatch, outBatch, len(got), len(img.rows))
			}
			for i := range got {
				if !got[i][0].Equal(img.rows[i][0]) {
					t.Fatalf("src=%d out=%d row %d mismatch", srcBatch, outBatch, i)
				}
			}
		}
	}
}

func TestPropagateBasic(t *testing.T) {
	stable := stableRows(10)
	big := New(testSchema(), 10)
	if err := big.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := big.Insert(0, mkRow(100, "big")); err != nil {
		t.Fatal(err)
	}
	// big image: [big, s0, s1, s2, s4..s9] (10 rows)

	small := New(testSchema(), big.VisibleRows())
	if err := small.Modify(0, 1, vtypes.StrValue("patched-big")); err != nil {
		t.Fatal(err)
	}
	if err := small.Delete(4); err != nil { // deletes s4 (big rid 4 = stable 4)
		t.Fatal(err)
	}
	if err := small.Insert(2, mkRow(200, "small")); err != nil {
		t.Fatal(err)
	}

	combined, err := Propagate(big, small)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: materialize via stacked merge.
	want, err := Materialize(
		NewMergeScan(NewMergeScan(stableSource(stable, 6), big, allCols(big), 4), small, allCols(small), 8), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Materialize(NewMergeScan(stableSource(stable, 5), combined, allCols(combined), 3), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("propagate: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !got[i][c].Equal(want[i][c]) {
				t.Fatalf("propagate row %d col %d: %v vs %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

func TestPropagateMismatchErrors(t *testing.T) {
	big := New(testSchema(), 10)
	small := New(testSchema(), 99)
	if _, err := Propagate(big, small); err == nil {
		t.Fatal("stable-row mismatch must error")
	}
}

// TestPropagateRandomAgainstStackedMerge drives random ops into big and
// small layers and checks Propagate(big, small) produces the identical
// image to the stacked merge — the key layering invariant of the paper.
func TestPropagateRandomAgainstStackedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		stableN := rng.Intn(60)
		stable := stableRows(stableN)
		big := New(testSchema(), int64(stableN))
		applyRandom(t, rng, big, 40)
		small := New(testSchema(), big.VisibleRows())
		applyRandom(t, rng, small, 40)

		combined, err := Propagate(big, small)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := Materialize(
			NewMergeScan(NewMergeScan(stableSource(stable, 8), big, allCols(big), 8), small, allCols(small), 8), testSchema())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Materialize(NewMergeScan(stableSource(stable, 8), combined, allCols(combined), 8), testSchema())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if !got[i][c].Equal(want[i][c]) {
					t.Fatalf("trial %d row %d col %d: %v vs %v", trial, i, c, got[i][c], want[i][c])
				}
			}
		}
	}
}

func applyRandom(t *testing.T, rng *rand.Rand, p *PDT, ops int) {
	t.Helper()
	for op := 0; op < ops; op++ {
		n := p.VisibleRows()
		switch r := rng.Intn(10); {
		case r < 4 || n == 0:
			if err := p.Insert(int64(rng.Intn(int(n)+1)), mkRow(rng.Int63n(1e6), "r")); err != nil {
				t.Fatal(err)
			}
		case r < 7:
			if err := p.Delete(int64(rng.Intn(int(n)))); err != nil {
				t.Fatal(err)
			}
		default:
			col := rng.Intn(2)
			var v vtypes.Value
			if col == 0 {
				v = vtypes.I64Value(rng.Int63n(1e6))
			} else {
				v = vtypes.StrValue("mm")
			}
			if err := p.Modify(int64(rng.Intn(int(n))), col, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	p := New(testSchema(), 50)
	applyRandom(t, rng, p, 120)
	data := Encode(p)
	q, err := Decode(testSchema(), data)
	if err != nil {
		t.Fatal(err)
	}
	if q.StableRows() != p.StableRows() || q.VisibleRows() != p.VisibleRows() || q.Len() != p.Len() {
		t.Fatal("decoded shape mismatch")
	}
	stable := stableRows(50)
	want, _ := Materialize(NewMergeScan(stableSource(stable, 8), p, allCols(p), 8), testSchema())
	got, _ := Materialize(NewMergeScan(stableSource(stable, 8), q, allCols(q), 8), testSchema())
	if len(want) != len(got) {
		t.Fatal("decoded image size mismatch")
	}
	for i := range want {
		for c := range want[i] {
			if !got[i][c].Equal(want[i][c]) {
				t.Fatalf("decoded image row %d differs", i)
			}
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	p := New(testSchema(), 5)
	_ = p.Insert(0, mkRow(1, "abc"))
	_ = p.Modify(3, 1, vtypes.StrValue("zz"))
	data := Encode(p)
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(testSchema(), data[:cut]); err == nil {
			// Truncation at varint boundaries may still parse a prefix
			// as fewer entries only if entry count survived intact —
			// but the count is encoded up front, so it must error.
			t.Fatalf("truncation at %d must error", cut)
		}
	}
}

func TestEncodeWithNullsRoundtrip(t *testing.T) {
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "a", Kind: vtypes.KindI64, Nullable: true},
		vtypes.Column{Name: "b", Kind: vtypes.KindBool},
		vtypes.Column{Name: "c", Kind: vtypes.KindF64},
	)
	p := New(schema, 2)
	_ = p.Insert(0, vtypes.Row{vtypes.NullValue(vtypes.KindI64), vtypes.BoolValue(true), vtypes.F64Value(2.5)})
	_ = p.Modify(1, 0, vtypes.NullValue(vtypes.KindI64))
	q, err := Decode(schema, Encode(p))
	if err != nil {
		t.Fatal(err)
	}
	ents := q.Entries()
	if !ents[0].Row[0].Null || !ents[0].Row[1].B || ents[0].Row[2].F64 != 2.5 {
		t.Fatal("ins row lost values")
	}
	if !ents[1].Mods[0].Val.Null {
		t.Fatal("mod null lost")
	}
}

func TestChunkSplitting(t *testing.T) {
	// Enough appends to force several chunk splits; image must stay
	// consistent and ordered.
	p := New(testSchema(), 0)
	n := maxChunk*3 + 17
	for i := 0; i < n; i++ {
		if err := p.Append(mkRow(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if p.VisibleRows() != int64(n) {
		t.Fatal("visible count wrong after splits")
	}
	got, err := Materialize(NewMergeScan(stableSource(nil, 8), p, allCols(p), 64), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i][0].I64 != int64(i) {
			t.Fatalf("order broken at %d after splits", i)
		}
	}
}

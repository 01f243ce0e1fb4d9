package pdt

import (
	"fmt"
	"math/rand"
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// rangeSource serves a column projection of stable rows over position
// ranges inside [start, end), at most batch rows per batch, reporting
// positions like a pruning or partition-restricted storage scanner.
// last holds the vectors of the batch most recently served.
type rangeSource struct {
	rows       []vtypes.Row
	schema     *vtypes.Schema
	cols       []int
	ranges     [][2]int64
	start, end int64
	batch      int

	ri   int
	pos  int64
	base int64
	last []*vector.Vector
}

func newRangeSource(rows []vtypes.Row, cols []int, ranges [][2]int64, start, end int64, batch int) *rangeSource {
	s := &rangeSource{rows: rows, schema: testSchema(), cols: cols, ranges: ranges, start: start, end: end, batch: batch}
	if len(ranges) > 0 {
		s.pos = ranges[0][0]
	}
	return s
}

func (s *rangeSource) Next() ([]*vector.Vector, int, error) {
	for s.ri < len(s.ranges) && s.pos >= s.ranges[s.ri][1] {
		if s.ri++; s.ri < len(s.ranges) {
			s.pos = s.ranges[s.ri][0]
		}
	}
	if s.ri == len(s.ranges) {
		return nil, 0, nil
	}
	n := int(min(int64(s.batch), s.ranges[s.ri][1]-s.pos))
	s.last = make([]*vector.Vector, len(s.cols))
	for i, c := range s.cols {
		v := vector.New(s.schema.Col(c).Kind, n)
		for j := 0; j < n; j++ {
			v.Set(j, s.rows[s.pos+int64(j)][c])
		}
		s.last[i] = v
	}
	s.base = s.pos
	s.pos += int64(n)
	return s.last, n, nil
}

func (s *rangeSource) BasePos() int64  { return s.base }
func (s *rangeSource) StartPos() int64 { return s.start }
func (s *rangeSource) EndPos() int64   { return s.end }

// randomStack builds 1..20 tail layers over big (itself random), each a
// few Ins/Del/Mod operations addressing the image below it, biased
// toward the cases a stacked fold gets wrong: modifying and deleting
// rows a lower layer inserted, and appends at the layer's stableRows.
// It returns the layers and the final image.
func randomStack(t *testing.T, rng *rand.Rand, stable []vtypes.Row) (big *PDT, tails []*PDT, image []vtypes.Row) {
	t.Helper()
	img := &naiveImage{rows: append([]vtypes.Row{}, stable...)}
	next := 0
	layer := func(ops int) *PDT {
		p := New(testSchema(), int64(len(img.rows)))
		for op := 0; op < ops; op++ {
			n := int64(len(img.rows))
			var inserted []int64
			for rid, r := range img.rows {
				if r[0].I64 >= 1000 {
					inserted = append(inserted, int64(rid))
				}
			}
			var err error
			switch k := rng.Intn(6); {
			case k == 0 || n == 0: // insert anywhere
				next++
				rid, row := rng.Int63n(n+1), mkRow(int64(1000+next), fmt.Sprintf("i%d", next))
				err = p.Insert(rid, row)
				img.insert(rid, row)
			case k == 1: // append: the insert at the layer's stableRows
				next++
				row := mkRow(int64(1000+next), fmt.Sprintf("a%d", next))
				err = p.Insert(n, row)
				img.insert(n, row)
			case k == 2:
				rid := rng.Int63n(n)
				err = p.Delete(rid)
				img.delete(rid)
			case k == 3 && len(inserted) > 0: // delete an inserted row
				rid := inserted[rng.Intn(len(inserted))]
				err = p.Delete(rid)
				img.delete(rid)
			default: // modify, an inserted row when there is one half the time
				rid := rng.Int63n(n)
				if len(inserted) > 0 && rng.Intn(2) == 0 {
					rid = inserted[rng.Intn(len(inserted))]
				}
				col := rng.Intn(2)
				v := vtypes.StrValue(fmt.Sprintf("m%d", op))
				if col == 0 {
					v = vtypes.I64Value(rng.Int63n(900))
				}
				err = p.Modify(rid, col, v)
				img.modify(rid, col, v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	big = layer(rng.Intn(12))
	for i := 1 + rng.Intn(20); i > 0; i-- {
		tails = append(tails, layer(rng.Intn(4)))
	}
	return big, tails, img.rows
}

// drainChecked drains src, checking every row against image at the RID
// its batch's BasePos gives it, and returns those RIDs in order and the
// number of batches served as the source's own vectors.
func drainChecked(t *testing.T, label string, src PositionedSource, raw *rangeSource, cols []int, image []vtypes.Row) (rids []int64, passed int) {
	t.Helper()
	for {
		vecs, n, err := src.Next()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if n == 0 {
			return rids, passed
		}
		if len(cols) > 0 && raw.last != nil && vecs[0] == raw.last[0] {
			passed++
		}
		base := src.BasePos()
		for i := 0; i < n; i++ {
			rid := base + int64(i)
			if rid < 0 || rid >= int64(len(image)) {
				t.Fatalf("%s: RID %d outside the %d-row image", label, rid, len(image))
			}
			for j, c := range cols {
				if got := vecs[j].Get(i); !got.Equal(image[rid][c]) {
					t.Fatalf("%s: RID %d column %d = %v, image has %v", label, rid, c, got, image[rid][c])
				}
			}
			rids = append(rids, rid)
		}
	}
}

// TestPropagateStackMatchesStackedMerge is the read layer's invariant:
// Propagate(big, tails...) merged once yields exactly the image of
// merging the whole stack layer by layer, for random stacks of 1-20
// tails, under every column projection, vector sizes 1, 3 and 1024,
// partition-restricted sources and pruned gaps; every row is checked
// against a row-slice model at its BasePos-given RID. A gap may hold
// entries of any layer: its Ins rows, whoever inserted them, surface at
// their true RIDs.
func TestPropagateStackMatchesStackedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	projections := [][]int{{}, {0}, {1}, {0, 1}, {1, 0}}
	const group = 16
	passed := 0
	for trial := 0; trial < 60; trial++ {
		stable := stableRows(rng.Intn(300))
		big, tails, image := randomStack(t, rng, stable)
		combined, err := Propagate(big, tails...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if combined.VisibleRows() != int64(len(image)) {
			t.Fatalf("trial %d: combined has %d rows, image %d", trial, combined.VisibleRows(), len(image))
		}
		stack := append([]*PDT{big}, tails...)
		end := int64(len(stable))
		// About half the groups of the stable image are pruned, with
		// their entries or without.
		var kept [][2]int64
		for lo := int64(0); lo < end; lo += group {
			if rng.Intn(2) == 0 {
				kept = append(kept, [2]int64{lo, min(lo+group, end)})
			}
		}
		mid := (end / group / 2) * group
		for _, vec := range []int{1, 3, 1024} {
			for _, cols := range projections {
				label := func(mode, layers string) string {
					return fmt.Sprintf("trial %d vec %d cols %v %s %s", trial, vec, cols, mode, layers)
				}
				for _, layers := range []struct {
					name string
					ps   []*PDT
				}{{"stacked", stack}, {"combined", []*PDT{combined}}} {
					// Full range: every image row exactly once, in order.
					raw := newRangeSource(stable, cols, [][2]int64{{0, end}}, 0, end, vec)
					rids, n := drainChecked(t, label("full", layers.name), MergeLayers(raw, layers.ps, cols, vec), raw, cols, image)
					passed += n
					if len(rids) != len(image) {
						t.Fatalf("%s: %d rows, image %d", label("full", layers.name), len(rids), len(image))
					}
					for i, rid := range rids {
						if rid != int64(i) {
							t.Fatalf("%s: row %d has RID %d", label("full", layers.name), i, rid)
						}
					}
					// Two partitions split at a group boundary cover the
					// image between them, each row once.
					var all []int64
					for _, part := range [][2]int64{{0, mid}, {mid, end}} {
						raw := newRangeSource(stable, cols, [][2]int64{part}, part[0], part[1], vec)
						rids, _ := drainChecked(t, label(fmt.Sprintf("partition %v", part), layers.name), MergeLayers(raw, layers.ps, cols, vec), raw, cols, image)
						all = append(all, rids...)
					}
					if len(all) != len(image) {
						t.Fatalf("%s: partitions yield %d rows, image %d", label("partitioned", layers.name), len(all), len(image))
					}
					for i, rid := range all {
						if rid != int64(i) {
							t.Fatalf("%s: row %d has RID %d", label("partitioned", layers.name), i, rid)
						}
					}
					// Pruned gaps: the rows of kept groups, RID-true.
					raw = newRangeSource(stable, cols, kept, 0, end, vec)
					rids, _ = drainChecked(t, label("pruned", layers.name), MergeLayers(raw, layers.ps, cols, vec), raw, cols, image)
					for i := 1; i < len(rids); i++ {
						if rids[i] <= rids[i-1] {
							t.Fatalf("%s: RIDs not ascending at %d: %d after %d", label("pruned", layers.name), i, rids[i], rids[i-1])
						}
					}
				}
			}
		}
	}
	if passed == 0 {
		t.Fatal("no batch took the entry-free pass-through path")
	}
}

// A source batch no entry touches comes back as the source's own
// vectors; a batch with an entry on its last row, or one that an Ins at
// its first position precedes, is merged into the output batch.
func TestMergeScanPassesEntryFreeBatchesThrough(t *testing.T) {
	stable := stableRows(32)
	p := New(testSchema(), 32)
	if err := p.Modify(15, 1, vtypes.StrValue("mod")); err != nil { // last row of batch [8,16)
		t.Fatal(err)
	}
	if err := p.Insert(24, mkRow(-1, "ins")); err != nil { // before stable 24: after batch [16,24)
		t.Fatal(err)
	}
	cols := allCols(p)
	raw := newRangeSource(stable, cols, [][2]int64{{0, 32}}, 0, 32, 8)
	m := NewMergeScan(raw, p, cols, 8)
	want := []struct {
		base int64
		pass bool
	}{{0, true}, {8, false}, {16, true}, {24, false}, {32, false}}
	for i, w := range want {
		vecs, n, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("batch %d: stream ended early", i)
		}
		if pass := vecs[0] == raw.last[0] && vecs[1] == raw.last[1]; pass != w.pass || m.BasePos() != w.base {
			t.Fatalf("batch %d: passed through %v at RID %d, want %v at %d", i, pass, m.BasePos(), w.pass, w.base)
		}
		switch i {
		case 1:
			if got := vecs[1].Get(7).Str; got != "mod" {
				t.Fatalf("modified row reads %q", got)
			}
		case 3:
			if got := vecs[0].Get(0).I64; got != -1 {
				t.Fatalf("batch after the insert starts with %d, want the inserted row", got)
			}
		}
	}
	if _, n, _ := m.Next(); n != 0 {
		t.Fatalf("%d rows past the end", n)
	}
}

// sliceSource serves pre-built batches of n rows each, gap-free,
// without allocating.
type sliceSource struct {
	batches [][]*vector.Vector
	n       int
	i       int
}

func (s *sliceSource) Next() ([]*vector.Vector, int, error) {
	if s.i == len(s.batches) {
		return nil, 0, nil
	}
	s.i++
	return s.batches[s.i-1], s.n, nil
}

func (s *sliceSource) BasePos() int64  { return int64((s.i - 1) * s.n) }
func (s *sliceSource) StartPos() int64 { return 0 }
func (s *sliceSource) EndPos() int64   { return int64(len(s.batches) * s.n) }

// A drain allocates the merge's own state once, not per batch: the
// output batch is reused.
func TestMergeScanDrainAllocsIndependentOfBatchCount(t *testing.T) {
	const vec = 64
	allocs := func(batches int) float64 {
		src := &sliceSource{n: vec}
		p := New(testSchema(), int64(batches*vec))
		for b := 0; b < batches; b++ {
			ids, names := vector.New(vtypes.KindI64, vec), vector.New(vtypes.KindStr, vec)
			src.batches = append(src.batches, []*vector.Vector{ids, names})
			// One modified row per batch, so every batch is merged.
			if err := p.Modify(int64(b*vec+vec/2), 1, vtypes.StrValue("m")); err != nil {
				t.Fatal(err)
			}
		}
		cols := allCols(p)
		return testing.AllocsPerRun(10, func() {
			src.i = 0
			m := NewMergeScan(src, p, cols, vec)
			for {
				_, n, err := m.Next()
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					return
				}
			}
		})
	}
	if a10, a100 := allocs(10), allocs(100); a10 != a100 {
		t.Fatalf("a drain allocates %.0f times over 10 batches, %.0f over 100", a10, a100)
	}
}

// The reused output batch must not keep a NULL indicator from an
// earlier batch at a slot a later batch fills from a NULL-free source.
func TestMergeScanReusedBatchClearsNulls(t *testing.T) {
	schema := vtypes.NewSchema(vtypes.Column{Name: "v", Kind: vtypes.KindI64, Nullable: true})
	b0 := vector.New(vtypes.KindI64, 4)
	b0.Nulls = []bool{true, false, false, false}
	b1 := vector.New(vtypes.KindI64, 4)
	for i := range 4 {
		b0.I64[i], b1.I64[i] = int64(i), int64(4+i)
	}
	p := New(schema, 8)
	// Deleting the last row of each source batch forces both through
	// the output batch.
	if err := p.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(6); err != nil {
		t.Fatal(err)
	}
	src := &sliceSource{batches: [][]*vector.Vector{{b0}, {b1}}, n: 4}
	rows, err := Materialize(NewMergeScan(src, p, []int{0}, 4), schema)
	if err != nil {
		t.Fatal(err)
	}
	want := []vtypes.Value{vtypes.NullValue(vtypes.KindI64), vtypes.I64Value(1), vtypes.I64Value(2),
		vtypes.I64Value(4), vtypes.I64Value(5), vtypes.I64Value(6)}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if !rows[i][0].Equal(w) {
			t.Fatalf("row %d = %v, want %v", i, rows[i][0], w)
		}
	}
}

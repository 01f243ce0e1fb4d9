package pdt

import (
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// fakePosSource serves value ranges of a synthetic stable column with
// explicit positions — the shape a pruning or partition-restricted
// scanner presents: batches may start late, skip ranges, and end early.
type fakePosSource struct {
	ranges [][2]int64 // [lo, hi) position ranges served in order
	end    int64      // EndPos
	ri     int
	pos    int64
}

func (f *fakePosSource) Next() ([]*vector.Vector, int, error) {
	if f.ri >= len(f.ranges) {
		return nil, 0, nil
	}
	lo, hi := f.ranges[f.ri][0], f.ranges[f.ri][1]
	f.ri++
	f.pos = lo
	n := int(hi - lo)
	v := vector.New(vtypes.KindI64, n)
	for i := 0; i < n; i++ {
		v.I64[i] = lo + int64(i) // value == stable position
	}
	return []*vector.Vector{v}, n, nil
}

func (f *fakePosSource) BasePos() int64 { return f.pos }
func (f *fakePosSource) EndPos() int64  { return f.end }

func mergeSchema() *vtypes.Schema {
	return vtypes.NewSchema(vtypes.Column{Name: "v", Kind: vtypes.KindI64})
}

// drainPositioned collects all rows and the BasePos of each batch.
func drainPositioned(t *testing.T, m *MergeScan) (vals []int64, basePos []int64) {
	t.Helper()
	for {
		cols, n, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return vals, basePos
		}
		basePos = append(basePos, m.BasePos())
		for i := 0; i < n; i++ {
			vals = append(vals, cols[0].I64[i])
		}
	}
}

// A partition-restricted source: entries below the partition start are
// stepped over (other partitions apply them), entries inside apply,
// and appends at the table end belong to the partition reaching it.
func TestMergeScanPartitionedSource(t *testing.T) {
	p := New(mergeSchema(), 1024)
	if err := p.Delete(100); err != nil { // other partition's business
		t.Fatal(err)
	}
	if err := p.Delete(599); err != nil { // RID 599 = SID 600 after the first delete
		t.Fatal(err)
	}
	if err := p.Append(vtypes.Row{vtypes.I64Value(-1)}); err != nil {
		t.Fatal(err)
	}
	// Partition covering stable [512, 1024), i.e. the second half.
	src := &fakePosSource{ranges: [][2]int64{{512, 1024}}, end: 1024}
	m := NewMergeScan(src, p, allCols(p), 200)
	vals, basePos := drainPositioned(t, m)
	// 512 stable rows minus the delete at 600, plus the append.
	if len(vals) != 512 {
		t.Fatalf("partition output %d rows, want 512", len(vals))
	}
	for _, v := range vals[:511] {
		if v == 600 {
			t.Fatal("deleted stable row 600 leaked through")
		}
	}
	if vals[511] != -1 {
		t.Fatalf("append missing from end partition: tail %d", vals[511])
	}
	// First batch's RID: stable 512 shifted by the one earlier delete
	// (SID 100); the delete at 600 lies inside this partition.
	if basePos[0] != 511 {
		t.Fatalf("first batch BasePos %d, want 511", basePos[0])
	}
	// The complementary partition [0, 512) applies only its own delete
	// and stops before the boundary.
	src = &fakePosSource{ranges: [][2]int64{{0, 512}}, end: 512}
	m = NewMergeScan(src, p, allCols(p), 200)
	vals, basePos = drainPositioned(t, m)
	if len(vals) != 511 {
		t.Fatalf("first partition %d rows, want 511", len(vals))
	}
	for _, v := range vals {
		if v == 100 {
			t.Fatal("deleted stable row 100 leaked through")
		}
		if v == -1 {
			t.Fatal("append emitted by non-final partition")
		}
	}
	if basePos[0] != 0 {
		t.Fatalf("first partition BasePos %d, want 0", basePos[0])
	}
}

// An insert exactly on a partition boundary is emitted by the
// partition that starts there — once, never twice.
func TestMergeScanBoundaryInsert(t *testing.T) {
	p := New(mergeSchema(), 1024)
	// Insert before stable position 512 (RID 512 pre-insert).
	if err := p.Insert(512, vtypes.Row{vtypes.I64Value(-512)}); err != nil {
		t.Fatal(err)
	}
	left := NewMergeScan(&fakePosSource{ranges: [][2]int64{{0, 512}}, end: 512}, p, allCols(p), 128)
	right := NewMergeScan(&fakePosSource{ranges: [][2]int64{{512, 1024}}, end: 1024}, p, allCols(p), 128)
	lv, _ := drainPositioned(t, left)
	rv, _ := drainPositioned(t, right)
	count := 0
	for _, v := range append(append([]int64(nil), lv...), rv...) {
		if v == -512 {
			count++
		}
	}
	if len(lv)+len(rv) != 1025 || count != 1 {
		t.Fatalf("boundary insert emitted %d times across %d+%d rows", count, len(lv), len(rv))
	}
	if rv[0] != -512 {
		t.Fatalf("boundary insert must lead the right partition, got %d", rv[0])
	}
}

// Pruned gaps: a source that skips clean ranges mid-stream. Batches cut
// at the discontinuity and deltas on both sides still apply at the
// right rows; BasePos stays truthful for a layered merge.
func TestMergeScanPrunedGaps(t *testing.T) {
	p := New(mergeSchema(), 1024)
	if err := p.Delete(10); err != nil {
		t.Fatal(err)
	}
	// Modify stable 800 (RID 799 after the delete).
	if err := p.Modify(799, 0, vtypes.I64Value(-800)); err != nil {
		t.Fatal(err)
	}
	// Groups [256, 768) pruned away: no entries there, so legal.
	src := &fakePosSource{ranges: [][2]int64{{0, 256}, {768, 1024}}, end: 1024}
	m := NewMergeScan(src, p, allCols(p), 4096)
	vals, basePos := drainPositioned(t, m)
	if len(vals) != 511 { // 256-1 + 256
		t.Fatalf("gap merge %d rows, want 511", len(vals))
	}
	// Two batches (cut at the jump) even though vecCap held both.
	if len(basePos) != 2 || basePos[0] != 0 || basePos[1] != 767 {
		t.Fatalf("batch positions %v, want [0 767]", basePos)
	}
	seen := false
	for _, v := range vals {
		if v == 10 {
			t.Fatal("deleted row leaked")
		}
		if v == -800 {
			seen = true
		}
		if v == 800 {
			t.Fatal("modification lost across the gap")
		}
	}
	if !seen {
		t.Fatal("modified row missing")
	}
}

// A deleted last row of a batch followed by a pruned gap: stepping past
// the deleted row loads the batch after the gap, so the Del must be
// consumed before the cursor steps over the gap — else it is counted
// twice and the next entry is lost.
func TestMergeScanDeleteBeforePrunedGap(t *testing.T) {
	p := New(mergeSchema(), 48)
	if err := p.Delete(15); err != nil { // last row of [0, 16)
		t.Fatal(err)
	}
	if err := p.Modify(39, 0, vtypes.I64Value(-40)); err != nil { // stable 40
		t.Fatal(err)
	}
	src := &fakePosSource{ranges: [][2]int64{{0, 16}, {32, 48}}, end: 48}
	vals, basePos := drainPositioned(t, NewMergeScan(src, p, []int{0}, 64))
	if len(vals) != 31 || len(basePos) != 2 || basePos[1] != 31 {
		t.Fatalf("%d rows in batches at %v, want 31 rows in batches at [0 31]", len(vals), basePos)
	}
	if vals[14] != 14 || vals[15] != 32 || vals[23] != -40 {
		t.Fatalf("rows around the gap %v, want 14, 32, and -40 for stable 40", vals[14:24])
	}
}

// Layered merges over a pruned source: the lower merge's BasePos/EndPos
// let the upper layer align its own deltas across the same gap.
func TestMergeScanLayeredOverGaps(t *testing.T) {
	bottom := New(mergeSchema(), 1024)
	if err := bottom.Delete(0); err != nil {
		t.Fatal(err)
	}
	// Upper layer addresses the bottom's output image (1023 rows):
	// delete its row 900 (stable 901's image position is 900).
	top := New(mergeSchema(), 1023)
	if err := top.Delete(900); err != nil {
		t.Fatal(err)
	}
	// Prune [256, 768): entry-free in both layers' coordinates.
	src := &fakePosSource{ranges: [][2]int64{{0, 256}, {768, 1024}}, end: 1024}
	m := NewMergeScan(NewMergeScan(src, bottom, allCols(bottom), 128), top, allCols(top), 128)
	vals, _ := drainPositioned(t, m)
	if len(vals) != 510 {
		t.Fatalf("layered gap merge %d rows, want 510", len(vals))
	}
	for _, v := range vals {
		if v == 0 || v == 901 {
			t.Fatalf("row %d should be deleted", v)
		}
	}
}

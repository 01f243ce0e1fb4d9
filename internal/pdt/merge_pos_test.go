package pdt

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// fakePosSource serves value ranges of a synthetic stable column with
// explicit positions — the shape a pruning or partition-restricted
// scanner presents: batches may start late, skip ranges, and end early.
type fakePosSource struct {
	ranges [][2]int64 // [lo, hi) position ranges served in order
	start  int64      // StartPos
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

func (f *fakePosSource) BasePos() int64  { return f.pos }
func (f *fakePosSource) StartPos() int64 { return f.start }
func (f *fakePosSource) EndPos() int64   { return f.end }

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
	src := &fakePosSource{ranges: [][2]int64{{512, 1024}}, start: 512, end: 1024}
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
	right := NewMergeScan(&fakePosSource{ranges: [][2]int64{{512, 1024}}, start: 512, end: 1024}, p, allCols(p), 128)
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

// drainBatches collects every batch's rows and BasePos.
func drainBatches(t *testing.T, src PositionedSource) (batches [][]int64, basePos []int64) {
	t.Helper()
	for {
		cols, n, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return batches, basePos
		}
		basePos = append(basePos, src.BasePos())
		batches = append(batches, append([]int64(nil), cols[0].I64[:n]...))
	}
}

// mustOps fails the test on the first error of a sequence of writes.
func mustOps(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// denseImage merges layers over the whole stable column 0..stable-1.
func denseImage(t *testing.T, stable int64, layers ...*PDT) []int64 {
	t.Helper()
	var src PositionedSource = &fakePosSource{ranges: [][2]int64{{0, stable}}, end: stable}
	for _, p := range layers {
		src = NewMergeScan(src, p, []int{0}, 4096)
	}
	batches, _ := drainBatches(t, src)
	var image []int64
	for _, b := range batches {
		image = append(image, b...)
	}
	return image
}

// checkAtRIDs checks every row of every batch against image at the RID
// its batch's BasePos gives it, and that RIDs ascend.
func checkAtRIDs(t *testing.T, batches [][]int64, basePos []int64, image []int64) {
	t.Helper()
	last := int64(-1)
	for b, rows := range batches {
		for i, v := range rows {
			rid := basePos[b] + int64(i)
			if rid <= last || rid >= int64(len(image)) || image[rid] != v {
				t.Fatalf("batch %d row %d: value %d at RID %d (previous RID %d, image %d rows)", b, i, v, rid, last, len(image))
			}
			last = rid
		}
	}
}

// A pruned gap that holds entries: its Ins rows are emitted at their
// true RIDs, each run of Ins at one SID in its own batch (the stable
// rows between runs are skipped, so their RIDs are not contiguous); its
// Del and Mod entries are consumed without emitting the rows they
// annotate; an Ins at the gap's end SID leads the batch after the gap.
func TestMergeScanGapWithEntries(t *testing.T) {
	p := New(mergeSchema(), 1024)
	// Highest position first, so every RID below equals its SID.
	mustOps(t,
		p.Insert(768, vtypes.Row{vtypes.I64Value(-768)}), // at the gap's end SID
		p.Modify(600, 0, vtypes.I64Value(-600)),          // a skipped row, not emitted
		p.Delete(550),                                    // a skipped row, only counted
		p.Insert(500, vtypes.Row{vtypes.I64Value(-500)}), // a run of two at SID 500
		p.Insert(501, vtypes.Row{vtypes.I64Value(-501)}),
		p.Insert(300, vtypes.Row{vtypes.I64Value(-300)}),
		p.Modify(103, 0, vtypes.I64Value(-100)), // a scanned row
	)
	src := &fakePosSource{ranges: [][2]int64{{0, 256}, {768, 1024}}, end: 1024}
	batches, basePos := drainBatches(t, NewMergeScan(src, p, []int{0}, 4096))
	checkAtRIDs(t, batches, basePos, denseImage(t, 1024, p))
	want := [][]int64{{-300}, {-500, -501}}
	if len(batches) != 4 || fmt.Sprint(batches[1:3]) != fmt.Sprint(want) || batches[3][0] != -768 {
		t.Fatalf("batches %v", batches)
	}
	// 256 scanned rows, the three gap inserts, then the insert at 768
	// and the 256 rows after the gap.
	if fmt.Sprint(basePos) != fmt.Sprint([]int64{0, 300, 501, 770}) || len(batches[0]) != 256 || len(batches[3]) != 257 {
		t.Fatalf("batch positions %v, sizes %d and %d", basePos, len(batches[0]), len(batches[3]))
	}
	if batches[0][103] != -100 {
		t.Fatalf("scanned modification lost: %d", batches[0][103])
	}
}

// The run-up to a partition's start is not a gap: Ins entries there
// belong to the partition before, which emits them (here from its own
// pruned tail). A partition whose first group is pruned emits the Ins at
// its start position, and the partition reaching the table end emits the
// appends, after a pruned last group too: every insert exactly once.
func TestMergeScanPartitionsOverGaps(t *testing.T) {
	p := New(mergeSchema(), 1024)
	mustOps(t,
		p.Append(vtypes.Row{vtypes.I64Value(-2000)}),
		p.Append(vtypes.Row{vtypes.I64Value(-2001)}),
		p.Insert(512, vtypes.Row{vtypes.I64Value(-512)}), // starts the second partition
		p.Insert(300, vtypes.Row{vtypes.I64Value(-300)}), // the first partition's pruned tail
		p.Delete(10),
	)
	image := denseImage(t, 1024, p)
	parts := []*fakePosSource{
		{ranges: [][2]int64{{0, 256}}, start: 0, end: 512},
		{ranges: [][2]int64{{768, 1024}}, start: 512, end: 1024},
		{ranges: [][2]int64{{512, 768}}, start: 512, end: 1024},
	}
	var first [][]int64
	for i, src := range parts {
		batches, basePos := drainBatches(t, NewMergeScan(src, p, []int{0}, 100))
		checkAtRIDs(t, batches, basePos, image)
		if i == 0 {
			first = batches
			continue
		}
		count := map[int64]int{}
		for _, b := range append(append([][]int64(nil), first...), batches...) {
			for _, v := range b {
				count[v]++
			}
		}
		for _, v := range []int64{-300, -512, -2000, -2001} {
			if count[v] != 1 {
				t.Fatalf("second partition %v: insert %d emitted %d times", src.ranges, v, count[v])
			}
		}
	}
}

// Layered merges over a pruned source: the lower merge's positions let
// the upper layer align its own deltas across the same gap. Both layers
// hold entries inside the gap: the lower merge emits its inserts there,
// which the upper merge receives as delivered rows and deletes or
// modifies; the upper layer's own gap inserts are emitted, and its
// writes to skipped rows are only counted.
func TestMergeScanLayeredOverGaps(t *testing.T) {
	bottom := New(mergeSchema(), 1024)
	mustOps(t,
		bottom.Insert(600, vtypes.Row{vtypes.I64Value(-600)}),
		bottom.Insert(400, vtypes.Row{vtypes.I64Value(-400)}),
		bottom.Insert(300, vtypes.Row{vtypes.I64Value(-300)}),
		bottom.Modify(350, 0, vtypes.I64Value(5000)), // stable 349: skipped
		bottom.Delete(0),
	)
	// The upper layer addresses the bottom's output image (1026 rows):
	// the bottom's inserts sit at RIDs 299, 400 and 601 (-300, -400,
	// -600), stable 499 at 500 and stable 900 at 902.
	top := New(mergeSchema(), 1026)
	mustOps(t,
		top.Delete(902), // stable 900
		top.Insert(700, vtypes.Row{vtypes.I64Value(-700)}), // in the gap
		top.Modify(601, 0, vtypes.I64Value(-601)),          // the bottom's -600
		top.Delete(400), // the bottom's -400
		top.Modify(500, 0, vtypes.I64Value(6000)), // stable 499: skipped
	)
	image := denseImage(t, 1024, bottom, top)
	src := &fakePosSource{ranges: [][2]int64{{0, 256}, {768, 1024}}, end: 1024}
	batches, basePos := drainBatches(t, NewMergeScan(NewMergeScan(src, bottom, []int{0}, 128), top, []int{0}, 128))
	checkAtRIDs(t, batches, basePos, image)
	seen := map[int64]bool{}
	n := 0
	for _, b := range batches {
		for _, v := range b {
			seen[v] = true
			n++
		}
	}
	// 255 + 256 - 1 scanned rows and the gap's -300, -601 and -700.
	if n != 513 || !seen[-300] || !seen[-601] || !seen[-700] {
		t.Fatalf("layered gap merge: %d rows, inserts -300 %v -601 %v -700 %v", n, seen[-300], seen[-601], seen[-700])
	}
	for _, v := range []int64{0, 900, -400, -600, 5000, 6000} {
		if seen[v] {
			t.Fatalf("row %d should be deleted, replaced or skipped", v)
		}
	}
}

// A cursor past an unconsumed Ins is a positional bug. Next reports it,
// naming both positions, on a live batch and after the source's end,
// instead of spinning on an entry it can never apply.
func TestMergeScanCursorPastEntry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ranges [][2]int64
		sid    int64
	}{
		{"batch", [][2]int64{{0, 100}}, 20},
		{"eof", nil, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(mergeSchema(), 100)
			if err := p.Insert(10, vtypes.Row{vtypes.I64Value(-10)}); err != nil {
				t.Fatal(err)
			}
			m := NewMergeScan(&fakePosSource{ranges: tc.ranges, end: 100}, p, allCols(p), 64)
			m.sid = tc.sid
			done := make(chan error, 1)
			go func() {
				_, _, err := m.Next()
				done <- err
			}()
			select {
			case err := <-done:
				want := fmt.Sprintf("position %d is past an unapplied entry at 10", tc.sid)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("Next: err %v, want one containing %q", err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Next did not return: the merge spins on the entry below its cursor")
			}
		})
	}
}

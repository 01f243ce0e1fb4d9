package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"vectorwise/internal/expr"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// buildOrders builds a small orders-like table: id, customer, amount, tag.
func buildOrders(t testing.TB, n, groupRows int) *storage.Table {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "cust", Kind: vtypes.KindI64},
		vtypes.Column{Name: "amount", Kind: vtypes.KindF64},
		vtypes.Column{Name: "tag", Kind: vtypes.KindStr},
	)
	b := storage.NewBuilder("orders", schema, groupRows)
	tags := []string{"RAIL", "AIR", "SHIP"}
	for i := 0; i < n; i++ {
		err := b.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)),
			vtypes.I64Value(int64(i % 7)),
			vtypes.F64Value(float64(i%100) + 0.5),
			vtypes.StrValue(tags[i%3]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func col(i int, k vtypes.Kind) Expr { return expr.NewCol(i, k) }
func i64c(v int64) Expr             { return expr.NewConst(vtypes.I64Value(v)) }
func f64c(v float64) Expr           { return expr.NewConst(vtypes.F64Value(v)) }
func mustPred(p expr.Pred, err error) Pred {
	if err != nil {
		panic(err)
	}
	return p
}

func TestScanAllRows(t *testing.T) {
	tbl := buildOrders(t, 500, 128)
	sc := NewScan(tbl, []int{0, 2}, ScanOpts{VecSize: 100})
	rows, err := Collect(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("scanned %d rows", len(rows))
	}
	if rows[499][0].I64 != 499 {
		t.Fatal("scan values wrong")
	}
	if sc.Schema().Col(1).Name != "amount" {
		t.Fatal("projected schema wrong")
	}
}

func TestScanWithPDTLayers(t *testing.T) {
	tbl := buildOrders(t, 100, 32)
	master := pdt.New(tbl.Schema(), tbl.Rows())
	if err := master.Delete(0); err != nil {
		t.Fatal(err)
	}
	// RID 4 addresses stable row 5 (the delete above shifted positions).
	if err := master.Modify(4, 2, vtypes.F64Value(999.5)); err != nil {
		t.Fatal(err)
	}
	small := pdt.New(tbl.Schema(), master.VisibleRows())
	if err := small.Append(vtypes.Row{
		vtypes.I64Value(1000), vtypes.I64Value(1), vtypes.F64Value(1.5), vtypes.StrValue("NEW"),
	}); err != nil {
		t.Fatal(err)
	}
	sc := NewScan(tbl, []int{0, 2}, ScanOpts{Layers: []*pdt.PDT{master, small}, VecSize: 16})
	rows, err := Collect(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][0].I64 != 1 {
		t.Fatal("delete not merged")
	}
	// Original row 5 is now at position 4 with modified amount.
	if rows[4][1].F64 != 999.5 {
		t.Fatalf("modify not merged: %v", rows[4])
	}
	if rows[99][0].I64 != 1000 {
		t.Fatal("insert not merged")
	}
}

func TestSelectPushesSelectionVectors(t *testing.T) {
	tbl := buildOrders(t, 1000, 256)
	sc := NewScan(tbl, []int{0, 1, 2, 3}, ScanOpts{})
	p1 := mustPred(expr.NewCmpConst(col(0, vtypes.KindI64), expr.CmpLt, vtypes.I64Value(100)))
	p2 := mustPred(expr.NewCmpConst(col(3, vtypes.KindStr), expr.CmpEq, vtypes.StrValue("RAIL")))
	sel := NewSelect(sc, expr.NewAnd(p1, p2))
	rows, err := Collect(sel)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 100; i++ {
		if i%3 == 0 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r[0].I64 >= 100 || r[3].Str != "RAIL" {
			t.Fatalf("filter leak: %v", r)
		}
	}
}

func TestProjectComputes(t *testing.T) {
	tbl := buildOrders(t, 10, 8)
	sc := NewScan(tbl, []int{0, 2}, ScanOpts{})
	mul, err := expr.NewArith(expr.OpMul, col(1, vtypes.KindF64), f64c(2))
	if err != nil {
		t.Fatal(err)
	}
	pr := NewProject(sc, []Expr{col(0, vtypes.KindI64), mul}, []string{"id", "double_amount"})
	rows, err := Collect(pr)
	if err != nil {
		t.Fatal(err)
	}
	if rows[3][1].F64 != (3.5)*2 {
		t.Fatalf("computed col wrong: %v", rows[3])
	}
	if pr.Schema().Col(1).Name != "double_amount" {
		t.Fatal("schema name wrong")
	}
}

func TestProjectAfterSelectAlignsWithSel(t *testing.T) {
	tbl := buildOrders(t, 100, 64)
	sc := NewScan(tbl, []int{0, 2}, ScanOpts{})
	p := mustPred(expr.NewCmpConst(col(0, vtypes.KindI64), expr.CmpGe, vtypes.I64Value(90)))
	add, err := expr.NewArith(expr.OpAdd, col(0, vtypes.KindI64), i64c(1000))
	if err != nil {
		t.Fatal(err)
	}
	pr := NewProject(NewSelect(sc, p), []Expr{add}, []string{"idplus"})
	rows, err := Collect(pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || rows[0][0].I64 != 1090 || rows[9][0].I64 != 1099 {
		t.Fatalf("project-through-sel wrong: %v", rows)
	}
}

func TestHashAggregateGrouped(t *testing.T) {
	tbl := buildOrders(t, 700, 128)
	sc := NewScan(tbl, []int{1, 2}, ScanOpts{})
	agg := NewHashAggregate(sc,
		[]Expr{col(0, vtypes.KindI64)},
		[]AggSpec{
			{Fn: AggSum, Arg: col(1, vtypes.KindF64)},
			{Fn: AggCountStar},
			{Fn: AggMin, Arg: col(1, vtypes.KindF64)},
			{Fn: AggMax, Arg: col(1, vtypes.KindF64)},
			{Fn: AggCount, Arg: col(1, vtypes.KindF64)},
		},
		[]string{"cust", "total", "cnt", "mn", "mx", "n"})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d groups", len(rows))
	}
	// Verify group 0 against a scalar recomputation.
	var sum, mn, mx float64
	var cnt int64
	mn = 1e18
	mx = -1e18
	for i := 0; i < 700; i++ {
		if i%7 != 0 {
			continue
		}
		v := float64(i%100) + 0.5
		sum += v
		cnt++
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	for _, r := range rows {
		if r[0].I64 != 0 {
			continue
		}
		if r[1].F64 != sum || r[2].I64 != cnt || r[3].F64 != mn || r[4].F64 != mx {
			t.Fatalf("group 0 wrong: %v (want sum=%v cnt=%d mn=%v mx=%v)", r, sum, cnt, mn, mx)
		}
		if r[5].I64 != cnt {
			t.Fatalf("count(x) wrong: %v", r[5])
		}
	}
}

func TestHashAggregateUngrouped(t *testing.T) {
	tbl := buildOrders(t, 100, 32)
	sc := NewScan(tbl, []int{0}, ScanOpts{})
	agg := NewHashAggregate(sc, nil,
		[]AggSpec{{Fn: AggSum, Arg: col(0, vtypes.KindI64)}, {Fn: AggCountStar}},
		[]string{"s", "c"})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I64 != 99*100/2 || rows[0][1].I64 != 100 {
		t.Fatalf("ungrouped agg wrong: %v", rows)
	}
}

func TestHashAggregateEmptyInput(t *testing.T) {
	tbl := buildOrders(t, 100, 32)
	sc := NewScan(tbl, []int{0}, ScanOpts{})
	p := mustPred(expr.NewCmpConst(col(0, vtypes.KindI64), expr.CmpLt, vtypes.I64Value(-1)))
	// Grouped over empty input → zero groups.
	agg := NewHashAggregate(NewSelect(sc, p), []Expr{col(0, vtypes.KindI64)},
		[]AggSpec{{Fn: AggCountStar}}, []string{"g", "c"})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty grouped agg must emit nothing, got %v", rows)
	}
	// Ungrouped over empty input → one zero row.
	sc2 := NewScan(tbl, []int{0}, ScanOpts{})
	p2 := mustPred(expr.NewCmpConst(col(0, vtypes.KindI64), expr.CmpLt, vtypes.I64Value(-1)))
	agg2 := NewHashAggregate(NewSelect(sc2, p2), nil,
		[]AggSpec{{Fn: AggCountStar}}, []string{"c"})
	rows2, err := Collect(agg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 1 || rows2[0][0].I64 != 0 {
		t.Fatalf("empty ungrouped agg must emit one zero row, got %v", rows2)
	}
}

func TestHashAggregateManyGroups(t *testing.T) {
	// More groups than the initial directory to force rehashing.
	tbl := buildOrders(t, 5000, 1024)
	sc := NewScan(tbl, []int{0}, ScanOpts{})
	agg := NewHashAggregate(sc, []Expr{col(0, vtypes.KindI64)},
		[]AggSpec{{Fn: AggCountStar}}, []string{"id", "c"})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5000 {
		t.Fatalf("got %d groups, want 5000", len(rows))
	}
	for _, r := range rows {
		if r[1].I64 != 1 {
			t.Fatal("per-group count wrong after rehash")
		}
	}
}

// customers table for join tests: cust id → name.
func buildCustomers(t testing.TB, n int) *storage.Table {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "cid", Kind: vtypes.KindI64},
		vtypes.Column{Name: "name", Kind: vtypes.KindStr},
	)
	b := storage.NewBuilder("cust", schema, 64)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), vtypes.StrValue(fmt.Sprintf("c%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestHashJoinInner(t *testing.T) {
	orders := buildOrders(t, 100, 32)
	cust := buildCustomers(t, 5) // custs 0..4; orders reference 0..6
	oscan := NewScan(orders, []int{0, 1}, ScanOpts{})
	cscan := NewScan(cust, []int{0, 1}, ScanOpts{})
	j, err := NewHashJoin(oscan, cscan,
		[]Expr{col(1, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 100; i++ {
		if i%7 < 5 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("inner join %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r[1].I64 != r[2].I64 {
			t.Fatalf("join key mismatch: %v", r)
		}
		if r[3].Str != fmt.Sprintf("c%d", r[1].I64) {
			t.Fatalf("joined payload wrong: %v", r)
		}
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	orders := buildOrders(t, 100, 32)
	cust := buildCustomers(t, 5)
	mk := func(typ JoinType) []vtypes.Row {
		oscan := NewScan(orders, []int{0, 1}, ScanOpts{})
		cscan := NewScan(cust, []int{0}, ScanOpts{})
		j, err := NewHashJoin(oscan, cscan,
			[]Expr{col(1, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, typ)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	semi := mk(JoinLeftSemi)
	anti := mk(JoinLeftAnti)
	if len(semi)+len(anti) != 100 {
		t.Fatalf("semi %d + anti %d != 100", len(semi), len(anti))
	}
	for _, r := range semi {
		if r[1].I64 >= 5 {
			t.Fatalf("semi leak: %v", r)
		}
		if len(r) != 2 {
			t.Fatal("semi must project probe side only")
		}
	}
	for _, r := range anti {
		if r[1].I64 < 5 {
			t.Fatalf("anti leak: %v", r)
		}
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	orders := buildOrders(t, 21, 8)
	cust := buildCustomers(t, 5)
	oscan := NewScan(orders, []int{0, 1}, ScanOpts{})
	cscan := NewScan(cust, []int{0, 1}, ScanOpts{})
	j, err := NewHashJoin(oscan, cscan,
		[]Expr{col(1, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinLeftOuter)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Fatalf("left outer %d rows, want 21", len(rows))
	}
	nulls := 0
	for _, r := range rows {
		if r[1].I64 >= 5 {
			if !r[2].Null || !r[3].Null {
				t.Fatalf("unmatched row must null-pad: %v", r)
			}
			nulls++
		} else if r[3].Null {
			t.Fatalf("matched row must not null-pad: %v", r)
		}
	}
	if nulls == 0 {
		t.Fatal("expected some unmatched rows")
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	// Build side with duplicate keys: fan-out must emit all pairs.
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindI64},
	)
	b := storage.NewBuilder("dup", schema, 16)
	for i := 0; i < 6; i++ {
		_ = b.AppendRow(vtypes.Row{vtypes.I64Value(int64(i % 2)), vtypes.I64Value(int64(i))})
	}
	dup, _ := b.Finish()
	probe := buildCustomers(t, 2) // keys 0,1
	ps := NewScan(probe, []int{0}, ScanOpts{})
	bs := NewScan(dup, []int{0, 1}, ScanOpts{})
	j, err := NewHashJoin(ps, bs, []Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("fan-out join %d rows, want 6", len(rows))
	}
}

func TestSortAscDescMultiKey(t *testing.T) {
	tbl := buildOrders(t, 50, 16)
	sc := NewScan(tbl, []int{0, 1, 3}, ScanOpts{})
	srt := NewSort(sc, []SortKey{
		{Expr: col(2, vtypes.KindStr)},             // tag asc
		{Expr: col(0, vtypes.KindI64), Desc: true}, // id desc
	})
	rows, err := Collect(srt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatal("sort lost rows")
	}
	if !sort.SliceIsSorted(rows, func(a, b int) bool {
		if rows[a][2].Str != rows[b][2].Str {
			return rows[a][2].Str < rows[b][2].Str
		}
		return rows[a][0].I64 > rows[b][0].I64
	}) {
		t.Fatal("sort order wrong")
	}
}

// TestTopNAndLimit: the bounded sort emits exactly the first n rows of the
// full sort — for n of 0, below, off and above a multiple of the vector
// size, and above the input size — keeps ties in input order on both
// sides of a cut, takes input under selection vectors, and never holds
// more than 2·max(n, vecSize) rows while it reads.
func TestTopNAndLimit(t *testing.T) {
	// (k, id): k is 0..9 over and over, so every cut falls inside a run
	// of equal keys; odd batches arrive under a selection vector.
	schema := vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "id", Kind: vtypes.KindI64})
	var batches []*vector.Batch
	var ids [10][]int64 // ids[k] in input order
	id := int64(0)
	for bi := 0; bi < 40; bi++ {
		b := vector.NewBatch(schema, 100)
		sel := b.MutableSel(100)
		n := 0
		for i := 0; i < 100; i++ {
			b.Vecs[0].I64[i], b.Vecs[1].I64[i] = id%10, id
			if bi%2 == 0 || i%3 != 0 {
				sel[n] = int32(i)
				ids[id%10] = append(ids[id%10], id)
				n++
			}
			id++
		}
		if b.SetDense(100); bi%2 == 1 {
			b.SetSel(sel, n)
		}
		batches = append(batches, b)
	}
	var want []int64 // ORDER BY k DESC, stable
	for k := 9; k >= 0; k-- {
		want = append(want, ids[k]...)
	}
	const vecSize = 100 // no input batch is larger
	for _, n := range []int{0, 1, 5, vecSize, 150, 333, len(want), len(want) + 7} {
		src := &batchSource{schema: schema, batches: batches}
		top := NewTopN(src, []SortKey{{Expr: col(0, vtypes.KindI64), Desc: true}}, int64(n))
		top.vecSize = vecSize
		src.onNext = func(int) {
			if held := 2 * max(n, vecSize); top.rows > held {
				t.Fatalf("top %d holds %d rows, bound %d", n, top.rows, held)
			}
		}
		rows, err := Collect(top)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 && src.calls != len(batches)+1 || n == 0 && src.calls != 0 {
			t.Fatalf("top %d pulled its input %d times", n, src.calls)
		}
		got := make([]int64, len(rows))
		for i, r := range rows {
			got[i] = r[1].I64
		}
		if !slices.Equal(got, want[:min(n, len(want))]) {
			t.Fatalf("top %d: ids %v, want %v", n, got, want[:min(n, len(want))])
		}
	}
	// Limit alone.
	tbl := buildOrders(t, 200, 64)
	lim := NewLimit(NewScan(tbl, []int{0}, ScanOpts{VecSize: 7}), 10)
	rows, err := Collect(lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("limit wrong: %d", len(rows))
	}
}

func TestXchgUnionParallelScan(t *testing.T) {
	tbl := buildOrders(t, 1000, 100) // 10 groups
	parts := PartitionGroups(tbl.Groups(), 4)
	if len(parts) != 4 {
		t.Fatalf("partitions: %v", parts)
	}
	var children []Operator
	for _, p := range parts {
		children = append(children, NewScan(tbl, []int{0}, ScanOpts{GroupLo: p[0], GroupHi: p[1]}))
	}
	x, err := NewXchgUnion(children)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1000 {
		t.Fatalf("parallel scan %d rows", len(rows))
	}
	// Every id must appear exactly once.
	seen := make(map[int64]bool, 1000)
	for _, r := range rows {
		if seen[r[0].I64] {
			t.Fatal("duplicate row through exchange")
		}
		seen[r[0].I64] = true
	}
}

func TestParallelPartialAggregate(t *testing.T) {
	// The parallelizer's shape: per-partition partial aggregates unioned
	// through the exchange, re-aggregated at the top.
	tbl := buildOrders(t, 1000, 100)
	parts := PartitionGroups(tbl.Groups(), 2)
	var children []Operator
	for _, p := range parts {
		sc := NewScan(tbl, []int{1, 2}, ScanOpts{GroupLo: p[0], GroupHi: p[1]})
		children = append(children, NewHashAggregate(sc,
			[]Expr{col(0, vtypes.KindI64)},
			[]AggSpec{{Fn: AggSum, Arg: col(1, vtypes.KindF64)}, {Fn: AggCountStar}},
			[]string{"cust", "psum", "pcnt"}))
	}
	x, err := NewXchgUnion(children)
	if err != nil {
		t.Fatal(err)
	}
	final := NewHashAggregate(x,
		[]Expr{col(0, vtypes.KindI64)},
		[]AggSpec{{Fn: AggSum, Arg: col(1, vtypes.KindF64)}, {Fn: AggSum, Arg: col(2, vtypes.KindI64)}},
		[]string{"cust", "total", "cnt"})
	rows, err := Collect(final)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("parallel agg %d groups", len(rows))
	}
	// Compare against serial aggregation.
	serial := NewHashAggregate(NewScan(tbl, []int{1, 2}, ScanOpts{}),
		[]Expr{col(0, vtypes.KindI64)},
		[]AggSpec{{Fn: AggSum, Arg: col(1, vtypes.KindF64)}, {Fn: AggCountStar}},
		[]string{"cust", "total", "cnt"})
	wantRows, err := Collect(serial)
	if err != nil {
		t.Fatal(err)
	}
	wantBy := map[int64][2]float64{}
	for _, r := range wantRows {
		wantBy[r[0].I64] = [2]float64{r[1].F64, float64(r[2].I64)}
	}
	for _, r := range rows {
		w := wantBy[r[0].I64]
		if r[1].F64 != w[0] || float64(r[2].I64) != w[1] {
			t.Fatalf("parallel result differs for cust %d: %v vs %v", r[0].I64, r, w)
		}
	}
}

func TestScanPruningWithPredicate(t *testing.T) {
	tbl := buildOrders(t, 1000, 100)
	pruned := 0
	skip := &storage.Skip{Col: -1, Refute: func(g *storage.GroupMeta) bool {
		if g.Cols[0].MaxI64 < 900 {
			pruned++
			return true
		}
		return false
	}}
	sc := NewScan(tbl, []int{0}, ScanOpts{Skip: skip})
	p := mustPred(expr.NewCmpConst(col(0, vtypes.KindI64), expr.CmpGe, vtypes.I64Value(900)))
	rows, err := Collect(NewSelect(sc, p))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 || pruned != 9 {
		t.Fatalf("pruned scan: %d rows, %d groups pruned", len(rows), pruned)
	}
	// With PDT deltas a refuted group still skips. The delete in group 0
	// and a modification of another column there leave it refuted; the
	// row inserted into group 1 is emitted from the skipped range for the
	// filter to keep. A modification of the filter column pins its group
	// (group 2), and the merge finds its new value there.
	master := pdt.New(tbl.Schema(), tbl.Rows())
	for _, err := range []error{
		master.Delete(0),
		master.Modify(10, 2, vtypes.F64Value(-1)),
		master.Insert(149, vtypes.Row{vtypes.I64Value(950), vtypes.I64Value(0), vtypes.F64Value(0.5), vtypes.StrValue("AIR")}),
		master.Modify(250, 0, vtypes.I64Value(901)), // stable 250: the delete and the insert cancel
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	var stats storage.ScanStats
	sc2 := NewScan(tbl, []int{0}, ScanOpts{Skip: skip, SkipCols: pdt.ColSet(0).With(0), Filter: p, Stats: &stats, Layers: []*pdt.PDT{master}})
	rows2, err := Collect(sc2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int{}
	for _, r := range rows2 {
		if v := r[0].I64; v < 900 {
			t.Fatalf("row %d must not appear (filtered)", v)
		}
		seen[r[0].I64]++
	}
	// Groups 0, 1 and 3..8 skip; group 9's 100 rows, the insert and the
	// modified row come back.
	if pruned := stats.GroupsPruned.Load(); pruned != 8 || len(rows2) != 102 || seen[950] != 2 || seen[901] != 2 {
		t.Fatalf("delta-aware pruning: %d groups pruned, %d rows, 950 x%d, 901 x%d (want 8, 102, x2, x2)",
			pruned, len(rows2), seen[950], seen[901])
	}
}

func TestCaseExpression(t *testing.T) {
	tbl := buildOrders(t, 30, 16)
	sc := NewScan(tbl, []int{2, 3}, ScanOpts{})
	isRail, err := expr.NewLike(col(1, vtypes.KindStr), "RAIL", false)
	if err != nil {
		t.Fatal(err)
	}
	cse, err := expr.NewCase(expr.NewPredMap(isRail), col(0, vtypes.KindF64), f64c(0))
	if err != nil {
		t.Fatal(err)
	}
	agg := NewHashAggregate(NewProject(sc, []Expr{cse}, []string{"railamt"}), nil,
		[]AggSpec{{Fn: AggSum, Arg: col(0, vtypes.KindF64)}}, []string{"s"})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 0; i < 30; i++ {
		if i%3 == 0 {
			want += float64(i%100) + 0.5
		}
	}
	if rows[0][0].F64 != want {
		t.Fatalf("case-sum = %v, want %v", rows[0][0].F64, want)
	}
}

func TestDrainCountsRows(t *testing.T) {
	tbl := buildOrders(t, 123, 50)
	n, err := Drain(NewScan(tbl, []int{0}, ScanOpts{}))
	if err != nil || n != 123 {
		t.Fatalf("Drain = %d, %v", n, err)
	}
}

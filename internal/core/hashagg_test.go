package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/expr"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// aggFlavourInput builds `rows` rows of (k BIGINT, x DOUBLE NULL, y
// BIGINT NULL) in batches of batchSize. k takes `groups` values (0 when
// groups is 0) in a scrambled order; x is a multiple of 1/4, so any
// order of addition gives the same sum, and NULL on every seventh row,
// but its null indicator only appears after the first third of the
// rows; y carries an indicator from the first batch and is NULL on every
// row of group 1. sparse keeps about one row in ten live through a
// selection vector.
func aggFlavourInput(rows, groups, batchSize int, sparse bool) (*vtypes.Schema, []*vector.Batch) {
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "x", Kind: vtypes.KindF64, Nullable: true},
		vtypes.Column{Name: "y", Kind: vtypes.KindI64, Nullable: true})
	rng := rand.New(rand.NewSource(int64(groups)))
	var out []*vector.Batch
	for lo := 0; lo < rows; lo += batchSize {
		n := min(batchSize, rows-lo)
		b := vector.NewBatch(schema, n)
		b.Vecs[2].EnsureNulls()
		if lo >= rows/3 {
			b.Vecs[1].EnsureNulls()
		}
		for i := 0; i < n; i++ {
			id, k := lo+i, 0
			if groups > 0 {
				k = id * 7919 % groups
			}
			b.Vecs[0].I64[i] = int64(k)
			b.Vecs[1].F64[i] = float64(id%37)/4 - 2
			b.Vecs[2].I64[i] = int64(id%101) - 50
			if b.Vecs[1].Nulls != nil && id%7 == 3 {
				b.Vecs[1].Nulls[i] = true
			}
			b.Vecs[2].Nulls[i] = k == 1
		}
		b.SetDense(n)
		if sparse {
			sel, live := b.MutableSel(n), 0
			for i := 0; i < n; i++ {
				if rng.Intn(10) == 0 {
					sel[live] = int32(i)
					live++
				}
			}
			b.SetSel(sel, live)
		}
		out = append(out, b)
	}
	return schema, out
}

// TestHashAggFlavoursAgainstBoxedOracle runs the aggregate with every
// batch scattered row by row, with every batch partitioned into group
// runs, and with the operator's own choice (which switches flavour
// mid-input once a batch's groups pass smallGroups), against results
// computed from the boxed rows of the same batches. The aggregates read
// one nullable DOUBLE and one nullable BIGINT argument each as a single
// Expr — SUM, COUNT(x), MIN and a duplicated SUM over x, with COUNT(*) —
// so every argument is evaluated once for all its aggregates, and the BIGINT also cast to DOUBLE, as
// the planner sums it for AVG. Group counts are none, 1, 4, smallGroups,
// smallGroups+1 and 300; input batches are dense or 10 % live and 1, 3 or
// 1024 rows, the output vector size alike.
func TestHashAggFlavoursAgainstBoxedOracle(t *testing.T) {
	k, x, y := col(0, vtypes.KindI64), col(1, vtypes.KindF64), col(2, vtypes.KindI64)
	aggs := []AggSpec{
		{Fn: AggSum, Arg: x}, {Fn: AggCount, Arg: x}, {Fn: AggCountStar},
		{Fn: AggMin, Arg: x}, {Fn: AggSum, Arg: x},
		{Fn: AggSum, Arg: y}, {Fn: AggSum, Arg: expr.NewCast(y, vtypes.KindF64)}, {Fn: AggCount, Arg: y}, {Fn: AggMax, Arg: y},
	}
	names := []string{"k", "sum", "cnt", "n", "min", "sum2", "ysum", "ysumf", "ycnt", "ymax"}
	type acc struct {
		n, xn, yn, ysum, ymax int64
		xsum, xmin, ysumf     float64
	}
	for _, groups := range []int{0, 1, 4, smallGroups, smallGroups + 1, 300} {
		for _, sparse := range []bool{false, true} {
			for _, vecSize := range []int{1, 3, 1024} {
				name := fmt.Sprintf("groups=%d/sparse=%v/vec%d", groups, sparse, vecSize)
				schema, batches := aggFlavourInput(4000, groups, vecSize, sparse)
				// The engine's NULL rule: SUM/MIN/MAX over no non-NULL
				// value are 0.
				byKey := map[int64]*acc{}
				var keys []int64
				for _, r := range boxedRows(batches) {
					a := byKey[r[0].I64]
					if a == nil {
						a = &acc{}
						byKey[r[0].I64] = a
						keys = append(keys, r[0].I64)
					}
					a.n++
					if !r[1].Null {
						if a.xn == 0 || r[1].F64 < a.xmin {
							a.xmin = r[1].F64
						}
						a.xn++
						a.xsum += r[1].F64
					}
					if !r[2].Null {
						if a.yn == 0 || r[2].I64 > a.ymax {
							a.ymax = r[2].I64
						}
						a.yn++
						a.ysum += r[2].I64
						a.ysumf += float64(r[2].I64)
					}
				}
				var want []string
				for _, key := range keys {
					a := byKey[key]
					row := vtypes.Row{vtypes.I64Value(key),
						vtypes.F64Value(a.xsum), vtypes.I64Value(a.xn), vtypes.I64Value(a.n),
						vtypes.F64Value(a.xmin), vtypes.F64Value(a.xsum),
						vtypes.I64Value(a.ysum), vtypes.F64Value(a.ysumf), vtypes.I64Value(a.yn), vtypes.I64Value(a.ymax)}
					if groups == 0 {
						row = row[1:]
					}
					want = append(want, fmt.Sprint(row))
				}
				slices.Sort(want)

				for _, flavour := range []struct {
					name     string
					smallMax int
				}{{"scatter", 0}, {"default", smallGroups}, {"runs", math.MaxInt}} {
					groupBy, outNames := []Expr{k}, names
					if groups == 0 {
						groupBy, outNames = nil, names[1:]
					}
					agg := NewHashAggregate(&batchSource{schema: schema, batches: batches}, groupBy, aggs, outNames)
					agg.smallMax, agg.vecSize = flavour.smallMax, vecSize
					got := rowStrings(collectBounded(t, agg, vecSize))
					slices.Sort(got)
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Fatalf("%s/%s: aggregate\n%v\nboxed oracle\n%v", name, flavour.name, got, want)
					}
				}
			}
		}
	}
}

// tagCollision returns two BIGINT keys whose hashes agree in the 31 bits a
// hash-table entry stores: each is a candidate at the other's slot, and
// only key verification tells them apart.
func tagCollision(t *testing.T) (a, b int64) {
	const n = 1 << 18 // about 16 colliding pairs expected
	keys, hashes := make([]int64, n), make([]uint64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	primitives.HashI64(hashes, keys, nil, n)
	seen := make(map[uint32]int64, n)
	for i, h := range hashes {
		tag := uint32(h) &^ (1 << 31)
		if k, ok := seen[tag]; ok {
			return k, keys[i]
		}
		seen[tag] = keys[i]
	}
	t.Fatal("no two keys share a tag")
	return 0, 0
}

// TestNewKeyTagCollision feeds one batch (a, a, b) of new keys whose
// hashes share every tag bit, to an aggregate and to a semi join's build:
// the second a verifies against the group or key the first a created
// earlier in the same batch, and b fails that verification and walks on
// to a slot of its own.
func TestNewKeyTagCollision(t *testing.T) {
	a, b := tagCollision(t)
	batch := i64Batch([]int64{a, a, b})
	row := func(vs ...int64) string {
		r := vtypes.Row{}
		for _, v := range vs {
			r = append(r, vtypes.I64Value(v))
		}
		return fmt.Sprint(r)
	}
	agg := NewHashAggregate(&batchSource{schema: i64Schema(), batches: []*vector.Batch{batch}},
		[]Expr{col(0, vtypes.KindI64)}, []AggSpec{{Fn: AggCountStar}}, []string{"k", "n"})
	if got, want := rowStrings(collectBounded(t, agg, vector.DefaultSize)), []string{row(a, 2), row(b, 1)}; !slices.Equal(got, want) {
		t.Fatalf("aggregate %v, want %v", got, want)
	}
	j, err := NewHashJoin(&batchSource{schema: i64Schema(), batches: []*vector.Batch{i64Batch([]int64{b, -1, a})}},
		&batchSource{schema: i64Schema(), batches: []*vector.Batch{batch}},
		[]Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinLeftSemi)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowStrings(collectBounded(t, j, vector.DefaultSize)), []string{row(b), row(a)}; !slices.Equal(got, want) {
		t.Fatalf("semi join %v, want %v", got, want)
	}
}

// TestQ1AggregateWork opens Q1's aggregate as the cross-compiler builds
// it — every argument its own Expr, over l_quantity, l_extendedprice,
// l_discount, l_tax, the two flags and the planner's discounted price
// (#6) — and counts what it keeps. Its nine aggregates read five
// arguments, as SUM and COUNT of one column share the column, and six
// accumulators: five sums and the row count every COUNT reads.
func TestQ1AggregateWork(t *testing.T) {
	f64 := func(i int) Expr { return col(i, vtypes.KindF64) }
	charge, err := expr.NewArith(algebra.OpAdd, expr.NewConst(vtypes.F64Value(1)), f64(3))
	if err != nil {
		t.Fatal(err)
	}
	charge, err = expr.NewArith(algebra.OpMul, f64(6), charge)
	if err != nil {
		t.Fatal(err)
	}
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "l_quantity", Kind: vtypes.KindF64}, vtypes.Column{Name: "l_extendedprice", Kind: vtypes.KindF64},
		vtypes.Column{Name: "l_discount", Kind: vtypes.KindF64}, vtypes.Column{Name: "l_tax", Kind: vtypes.KindF64},
		vtypes.Column{Name: "l_returnflag", Kind: vtypes.KindStr}, vtypes.Column{Name: "l_linestatus", Kind: vtypes.KindStr},
		vtypes.Column{Name: "#p0", Kind: vtypes.KindF64})
	aggs := []AggSpec{
		{Fn: AggSum, Arg: f64(0)}, {Fn: AggSum, Arg: f64(1)}, {Fn: AggSum, Arg: f64(6)}, {Fn: AggSum, Arg: charge},
		{Fn: AggCount, Arg: f64(0)}, {Fn: AggCount, Arg: f64(1)}, {Fn: AggSum, Arg: f64(2)}, {Fn: AggCount, Arg: f64(2)},
		{Fn: AggCountStar},
	}
	names := []string{"#g0", "#g1", "#a0", "#a1", "#a2", "#a3", "#a4", "#a5", "#a6", "#a7", "#a8"}
	h := NewHashAggregate(&batchSource{schema: schema}, []Expr{col(4, vtypes.KindStr), col(5, vtypes.KindStr)}, aggs, names)
	if err := h.Open(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if len(h.args) != 5 || len(h.accs) != 6 {
		t.Errorf("%d arguments and %d accumulators, want 5 and 6", len(h.args), len(h.accs))
	}
}

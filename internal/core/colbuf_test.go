package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"vectorwise/internal/expr"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// TestColBufAppendGather round-trips every storage class through the
// chunked buffer against the boxed Batch.Row oracle: dense and selected
// batches, vectors with and without a null indicator in any order, enough
// rows to cross chunk boundaries, then dense and scattered gathers with
// unmatched (-1) rows.
func TestColBufAppendGather(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "i", Kind: vtypes.KindI64}, vtypes.Column{Name: "f", Kind: vtypes.KindF64},
		vtypes.Column{Name: "s", Kind: vtypes.KindStr}, vtypes.Column{Name: "b", Kind: vtypes.KindBool},
		vtypes.Column{Name: "d", Kind: vtypes.KindDate})
	bufs := newColBufs(schema)
	var oracle []vtypes.Row
	for round := 0; len(oracle) < 2*primitives.ChunkRows+500; round++ {
		n := []int{1, 3, 1024, 700}[round%4]
		b := vector.NewBatch(schema, n)
		for c, v := range b.Vecs {
			if round%3 == c%3 { // this vector carries an indicator, the others do not
				v.EnsureNulls()
			}
			for i := 0; i < n; i++ {
				x := rng.Int63n(1000)
				switch v.Kind.StorageClass() {
				case vtypes.ClassI64:
					v.I64[i] = x
				case vtypes.ClassF64:
					v.F64[i] = float64(x) / 8
				case vtypes.ClassStr:
					v.Str[i] = fmt.Sprint("s", x)
				case vtypes.ClassBool:
					v.B[i] = x%2 == 0
				}
				if v.Nulls != nil && x%5 == 0 {
					v.Nulls[i] = true
				}
			}
		}
		b.SetDense(n)
		if round%2 == 1 { // every other batch arrives under a selection vector
			sel := b.MutableSel(n)
			k := 0
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					sel[k] = int32(i)
					k++
				}
			}
			b.SetSel(sel, k)
		}
		for c, buf := range bufs {
			buf.append(b.Vecs[c], b.Sel, b.N)
		}
		for i := 0; i < b.N; i++ {
			oracle = append(oracle, b.Row(i))
		}
	}
	for c, buf := range bufs {
		if buf.n != len(oracle) {
			t.Fatalf("column %d holds %d rows, appended %d", c, buf.n, len(oracle))
		}
	}
	const n = 1000
	idx, pos := make([]int32, n), make([]int32, n)
	for k := range idx {
		idx[k] = int32(rng.Intn(len(oracle)+len(oracle)/10)) - int32(len(oracle)/10) // ~10 % negative
		if idx[k] < 0 {
			idx[k] = -1
		}
		pos[k] = int32(2 * k) // scatter to every other slot
	}
	for _, scatter := range []bool{false, true} {
		out := vector.NewBatch(schema, 2*n)
		var at []int32
		if scatter {
			at = pos
		}
		for c, buf := range bufs {
			out.Vecs[c].EnsureNulls() // idx holds -1, so the caller supplies the indicator
			buf.gather(out.Vecs[c], at, idx, n)
		}
		for k := 0; k < n; k++ {
			at := k
			if scatter {
				at = int(pos[k])
			}
			for c, v := range out.Vecs {
				want := vtypes.NullValue(v.Kind)
				if idx[k] >= 0 {
					want = oracle[idx[k]][c]
				}
				if got := v.Get(at); got.Null != want.Null || !got.Equal(want) {
					t.Fatalf("scatter=%v: row %d column %d gathered %v, appended %v", scatter, idx[k], c, got, want)
				}
			}
		}
	}
}

// stopAndGoInput builds input batches (k BIGINT NULL, s VARCHAR, f DOUBLE,
// b BOOLEAN, d DATE, t VARCHAR NULL, g DOUBLE NULL, id BIGINT) of one
// shape: "empty"; "all-duplicate", every column but id constant;
// "all-distinct" k; batches under a selection vector; dense random rows;
// or "large", enough rows for a bounded sort to cut across chunks. t
// draws from strings that tie on a sort key's prefix, g from the floats a
// total order has to place, and id numbers the rows in input order.
func stopAndGoInput(shape string, rng *rand.Rand) (*vtypes.Schema, []*vector.Batch) {
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64, Nullable: true},
		vtypes.Column{Name: "s", Kind: vtypes.KindStr}, vtypes.Column{Name: "f", Kind: vtypes.KindF64},
		vtypes.Column{Name: "b", Kind: vtypes.KindBool}, vtypes.Column{Name: "d", Kind: vtypes.KindDate},
		vtypes.Column{Name: "t", Kind: vtypes.KindStr, Nullable: true},
		vtypes.Column{Name: "g", Kind: vtypes.KindF64, Nullable: true},
		vtypes.Column{Name: "id", Kind: vtypes.KindI64})
	var out []*vector.Batch
	if shape == "empty" {
		return schema, out
	}
	ts := []string{"", "ab", "ab\x00", "Customer#000000001", "Customer#000000002", "Customer#0000", "Customer#000000001x", "b"}
	gs := []float64{math.NaN(), math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 5e-324, 2.25, math.Inf(1)}
	sizes := []int{1024, 1, 3, 1024, 517}
	if shape == "large" {
		sizes = append(slices.Repeat([]int{1024}, 15), 100)
	}
	id := int64(0)
	for bi, n := range sizes {
		b := vector.NewBatch(schema, n)
		b.Vecs[0].EnsureNulls()
		if bi > 0 { // t and g get their indicators late: earlier rows are padded
			b.Vecs[5].EnsureNulls()
			b.Vecs[6].EnsureNulls()
		}
		for i := 0; i < n; i++ {
			k, pick := rng.Int63n(40), rng.Intn(64)
			switch shape {
			case "all-duplicate":
				k, pick = 7, 3
			case "all-distinct":
				k = (id*7919 + 13) % 100003
			default:
				if k%9 == 0 && k > 0 {
					k, b.Vecs[0].Nulls[i] = 0, true // NULL over the safe value, beside real zeros
				}
			}
			b.Vecs[0].I64[i] = k
			b.Vecs[1].Str[i] = fmt.Sprint("s", pick%5)
			b.Vecs[2].F64[i] = float64(pick) / 4
			b.Vecs[3].B[i] = pick%3 == 0
			b.Vecs[4].I64[i] = int64(9000 + pick%7)
			b.Vecs[5].Str[i] = ts[pick%len(ts)]
			b.Vecs[6].F64[i] = gs[pick/8]
			if bi > 0 && pick%11 == 5 {
				b.Vecs[5].Nulls[i], b.Vecs[6].Nulls[i] = true, true
			}
			b.Vecs[7].I64[i] = id
			id++
		}
		b.SetDense(n)
		if shape == "selected" || shape == "large" && bi%2 == 1 {
			sel := b.MutableSel(n)
			k := 0
			for i := 0; i < n; i += 1 + i%3 {
				sel[k] = int32(i)
				k++
			}
			b.SetSel(sel, k)
		}
		out = append(out, b)
	}
	return schema, out
}

func boxedRows(batches []*vector.Batch) []vtypes.Row {
	var rows []vtypes.Row
	for _, b := range batches {
		for i := 0; i < b.N; i++ {
			rows = append(rows, b.Row(i))
		}
	}
	return rows
}

func rowStrings(rows []vtypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// collectBounded drains op, failing on any batch over vecSize rows.
func collectBounded(t *testing.T, op Operator, vecSize int) []vtypes.Row {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var rows []vtypes.Row
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows
		}
		if b.N > vecSize {
			t.Fatalf("batch of %d rows, vector size %d", b.N, vecSize)
		}
		for i := 0; i < b.N; i++ {
			rows = append(rows, b.Row(i))
		}
	}
}

// sortOracleKeys are the ORDER BY lists the sort is checked on, as
// (column, descending) pairs: every key kind alone and in lists of up to
// four with mixed directions, VARCHAR keys before, between and after
// fixed-width ones. Column -1 is the evaluated key -f.
var sortOracleKeys = [][]struct {
	col  int
	desc bool
}{
	{{0, false}, {2, true}},
	{{0, true}},
	{{2, false}},
	{{3, true}},
	{{4, false}},
	{{6, false}},
	{{6, true}, {0, false}},
	{{1, false}, {0, true}},
	{{5, true}, {4, false}},
	{{5, false}},
	{{3, false}, {4, true}, {0, true}, {-1, false}},
	{{4, false}, {5, false}, {1, true}, {0, false}},
	{{-1, true}, {5, true}},
}

// TestStopAndGoOperatorsAgainstBoxedOracle runs Sort (whole and bounded),
// HashAggregate and all four HashJoin types over empty, all-duplicate,
// all-distinct, selected, random and large inputs at output vector sizes
// 1, 3 and 1024, against results computed from the boxed rows of the same
// batches.
func TestStopAndGoOperatorsAgainstBoxedOracle(t *testing.T) {
	for _, shape := range []string{"empty", "all-duplicate", "all-distinct", "selected", "random", "large"} {
		for _, vecSize := range []int{1, 3, 1024} {
			name := fmt.Sprintf("%s/vec%d", shape, vecSize)
			schema, batches := stopAndGoInput(shape, rand.New(rand.NewSource(5)))
			in := boxedRows(batches)
			src := func() *batchSource { return &batchSource{schema: schema, batches: batches} }

			// Sort: NULL first ascending, stable — sort.SliceStable over
			// Value.Compare is what the reference engines run. A bounded
			// sort is the same order cut short.
			for _, spec := range sortOracleKeys {
				keyOf := func(r vtypes.Row, c int) vtypes.Value {
					if c < 0 {
						return vtypes.F64Value(-r[2].F64)
					}
					return r[c]
				}
				var keys []SortKey
				for _, k := range spec {
					e := Expr(expr.NewCol(max(k.col, 0), schema.Col(max(k.col, 0)).Kind))
					if k.col < 0 {
						e, _ = expr.NewArith(expr.OpMul, col(2, vtypes.KindF64), f64c(-1))
					}
					keys = append(keys, SortKey{Expr: e, Desc: k.desc})
				}
				want := append([]vtypes.Row(nil), in...)
				sort.SliceStable(want, func(a, b int) bool {
					for _, k := range spec {
						if c := keyOf(want[a], k.col).Compare(keyOf(want[b], k.col)); c != 0 {
							return (c < 0) != k.desc
						}
					}
					return false
				})
				for _, limit := range []int{-1, 1, 7, 5000} {
					srt, n := NewSort(src(), keys), len(want)
					if limit >= 0 {
						srt, n = NewTopN(src(), keys, int64(limit)), min(limit, len(want))
					}
					srt.vecSize = vecSize
					got := collectBounded(t, srt, vecSize)
					if !slices.EqualFunc(got, want[:n], func(a, b vtypes.Row) bool {
						return slices.EqualFunc(a, b, func(x, y vtypes.Value) bool { return x.Null == y.Null && x.Equal(y) })
					}) {
						t.Fatalf("%s: sort on %v limit %d differs from the boxed oracle (%d vs %d rows)", name, spec, limit, len(got), n)
					}
				}
			}

			// Aggregate: GROUP BY k (NULL its own group), COUNT(*), SUM(f).
			type acc struct {
				n   int64
				sum float64
			}
			groups := map[string]*acc{}
			for _, r := range in {
				g := groups[r[0].String()]
				if g == nil {
					g = &acc{}
					groups[r[0].String()] = g
				}
				g.n++
				g.sum += r[2].F64
			}
			var wantAgg []string
			for k, g := range groups {
				wantAgg = append(wantAgg, fmt.Sprintf("[%s %d %v]", k, g.n, g.sum))
			}
			agg := NewHashAggregate(src(), []Expr{col(0, vtypes.KindI64)},
				[]AggSpec{{Fn: AggCountStar}, {Fn: AggSum, Arg: col(2, vtypes.KindF64)}}, []string{"k", "n", "sum"})
			agg.vecSize = vecSize
			gotAgg := rowStrings(collectBounded(t, agg, vecSize))
			sort.Strings(gotAgg)
			sort.Strings(wantAgg)
			if strings.Join(gotAgg, "\n") != strings.Join(wantAgg, "\n") {
				t.Fatalf("%s: aggregate\n%v\nboxed oracle\n%v", name, gotAgg, wantAgg)
			}

			// Joins: the input probes a build side with duplicate keys, a
			// NULL key and a NULL payload; probe order × build order.
			bschema := vtypes.NewSchema(
				vtypes.Column{Name: "k", Kind: vtypes.KindI64, Nullable: true},
				vtypes.Column{Name: "tag", Kind: vtypes.KindStr, Nullable: true})
			bb := vector.NewBatch(bschema, 6)
			bb.Vecs[0].EnsureNulls()
			bb.Vecs[1].EnsureNulls()
			copy(bb.Vecs[0].I64, []int64{7, 3, 7, 0, 7, 12})
			copy(bb.Vecs[1].Str, []string{"a", "b", "", "n", "c", "d"})
			bb.Vecs[0].Nulls[3], bb.Vecs[1].Nulls[2] = true, true
			bb.SetDense(6)
			build := boxedRows([]*vector.Batch{bb})
			for _, typ := range []JoinType{JoinInner, JoinLeftSemi, JoinLeftAnti, JoinLeftOuter} {
				var wantJoin []vtypes.Row
				for _, p := range in {
					matched := false
					for _, b := range build {
						if p[0].Null || b[0].Null || p[0].I64 != b[0].I64 {
							continue
						}
						matched = true
						if typ == JoinInner || typ == JoinLeftOuter {
							wantJoin = append(wantJoin, append(p.Clone(), b...))
						}
					}
					switch {
					case typ == JoinLeftSemi && matched, typ == JoinLeftAnti && !matched:
						wantJoin = append(wantJoin, p)
					case typ == JoinLeftOuter && !matched:
						wantJoin = append(wantJoin, append(p.Clone(), vtypes.NullValue(vtypes.KindI64), vtypes.NullValue(vtypes.KindStr)))
					}
				}
				j, err := NewHashJoin(src(), &batchSource{schema: bschema, batches: []*vector.Batch{bb}},
					[]Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, typ)
				if err != nil {
					t.Fatal(err)
				}
				j.vecSize = vecSize
				if got := rowStrings(collectBounded(t, j, vecSize)); strings.Join(got, "\n") != strings.Join(rowStrings(wantJoin), "\n") {
					t.Fatalf("%s: %v join output differs from the nested-loop oracle (%d vs %d rows)", name, typ, len(got), len(wantJoin))
				}
			}
		}
	}
}

package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// DOUBLE dictionaries of the tests below: the same values and patterns
// in different orders, NaNs of two payloads, ±0 and ±Inf.
var (
	negZero = math.Copysign(0, -1)
	nan2    = math.Float64frombits(0xfff8000000000002)
	fd1     = []float64{0.05, negZero, math.NaN(), 1.5, math.Inf(1), 0.5}
	fd2     = []float64{0.5, 0, math.Inf(-1), 0.05, 2.5, nan2, 24}
)

// codedF64Batch returns a one-column DOUBLE batch of n rows drawn from
// dict: coded (codes, no values) unless plain is set.
func codedF64Batch(rng *rand.Rand, dict []float64, n int, plain bool) *vector.Batch {
	b := vector.NewBatchOfKinds([]vtypes.Kind{vtypes.KindF64}, n)
	v := b.Vecs[0]
	codes := make([]uint8, n)
	for i := range n {
		codes[i] = uint8(rng.Intn(len(dict)))
		v.F64[i] = dict[codes[i]]
	}
	if !plain {
		v.F64, v.Codes, v.Shared = nil, codes, &vector.Shared{DictF64: dict}
	}
	b.SetDense(n)
	return b
}

// sparsen puts every other row of b behind a selection vector.
func sparsen(b *vector.Batch) {
	sel := b.MutableSel(b.N)
	k := 0
	for i := 0; i < b.N; i += 2 {
		sel[k] = int32(i)
		k++
	}
	b.SetSel(sel, k)
}

// TestF64PredsOnDictCodes runs every single-column DOUBLE predicate — the
// six comparisons, BETWEEN and IN, with literals of both numeric classes,
// ±0, ±Inf and NaN — over batches whose dictionaries code the same values
// differently, return after another dictionary, equal another one's
// contents, carry no codes, carry a null indicator or hold 256 entries,
// dense and behind a selection, at batch sizes 1, 3 and 1024. Each result
// must be the rows whose value Go's IEEE comparison accepts.
func TestF64PredsOnDictCodes(t *testing.T) {
	d3 := slices.Clone(fd1) // 256 entries: judged a block at a time
	for i := len(d3); i < 256; i++ {
		d3 = append(d3, float64(i)/16-4)
	}
	type pred struct {
		name string
		make func() (Pred, error)
		want func(x float64) bool
	}
	col := NewCol(0, vtypes.KindF64)
	var preds []pred
	for _, lit := range []vtypes.Value{vtypes.F64Value(0.5), vtypes.F64Value(negZero), vtypes.F64Value(math.Inf(1)),
		vtypes.F64Value(math.NaN()), vtypes.F64Value(24), vtypes.F64Value(0)} {
		c := lit.F64
		for op, cmp := range map[algebra.CmpOp]func(x float64) bool{
			algebra.CmpEq: func(x float64) bool { return x == c }, algebra.CmpNe: func(x float64) bool { return x != c },
			algebra.CmpLt: func(x float64) bool { return x < c }, algebra.CmpLe: func(x float64) bool { return x <= c },
			algebra.CmpGt: func(x float64) bool { return x > c }, algebra.CmpGe: func(x float64) bool { return x >= c },
		} {
			preds = append(preds, pred{fmt.Sprintf("%v %v", op, lit), func() (Pred, error) { return NewCmpConst(col, op, lit) }, cmp})
		}
	}
	for _, r := range [][2]float64{{0.05, 0.07}, {negZero, 0.5}, {math.NaN(), 1}, {math.Inf(-1), 0}} {
		preds = append(preds, pred{fmt.Sprintf("BETWEEN %v AND %v", r[0], r[1]),
			func() (Pred, error) { return NewBetween(col, vtypes.F64Value(r[0]), vtypes.F64Value(r[1])) },
			func(x float64) bool { return r[0] <= x && x <= r[1] }})
	}
	for _, list := range [][]vtypes.Value{
		{vtypes.F64Value(0), vtypes.F64Value(2.5)}, {vtypes.F64Value(math.NaN())}, {vtypes.F64Value(24), vtypes.F64Value(0.5)},
		{vtypes.F64Value(math.Inf(-1)), vtypes.NullValue(vtypes.KindF64)},
	} {
		preds = append(preds, pred{fmt.Sprintf("IN %v", list),
			func() (Pred, error) { return NewInSet(col, list) },
			func(x float64) bool {
				return slices.ContainsFunc(list, func(v vtypes.Value) bool { return !v.Null && v.F64 == x })
			}})
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 1024} {
		for _, pc := range preds {
			p, err := pc.make()
			if err != nil {
				t.Fatal(err)
			}
			for step, shape := range []struct {
				dict         []float64
				plain, nulls bool
			}{
				{dict: fd1}, {dict: fd2}, {dict: fd1}, {dict: slices.Clone(fd1)},
				{dict: fd2, plain: true}, {dict: fd2}, {dict: fd1, nulls: true}, {dict: fd1}, {dict: d3},
			} {
				for _, sparse := range []bool{false, true} {
					b := codedF64Batch(rng, shape.dict, n, shape.plain)
					if shape.nulls {
						b.Vecs[0].EnsureNulls()
					}
					if sparse {
						sparsen(b)
					}
					var want []int
					for k := range b.N {
						if i := b.LiveIndex(k); pc.want(b.Vecs[0].F64At(i)) {
							want = append(want, i)
						}
					}
					if err := p.Filter(b); err != nil {
						t.Fatal(err)
					}
					if got := live(b); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("n=%d %s step %d sparse=%v: rows %v, want %v", n, pc.name, step, sparse, got, want)
					}
				}
			}
		}
	}
}

// TestInSetNumericClasses: IN over a BIGINT refuses a DOUBLE member, as
// every kernel refuses operands of two classes: the planner casts the
// probe to DOUBLE instead, and then it compares as DOUBLE.
func TestInSetNumericClasses(t *testing.T) {
	b := vector.NewBatchOfKinds([]vtypes.Kind{vtypes.KindI64}, 4)
	copy(b.Vecs[0].I64, []int64{1, 2, 3, 4})
	b.SetDense(4)
	members := []vtypes.Value{vtypes.F64Value(2.5), vtypes.F64Value(3), vtypes.F64Value(4)}
	if _, err := NewInSet(NewCol(0, vtypes.KindI64), members); err == nil {
		t.Fatal("a DOUBLE member of a BIGINT IN compiled")
	}
	p, err := NewInSet(NewCast(NewCol(0, vtypes.KindI64), vtypes.KindF64), members)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Filter(b); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(live(b)); got != "[2 3]" {
		t.Fatalf("cast(k as DOUBLE) IN (2.5, 3.0, 4.0) kept rows %s, want [2 3]", got)
	}
	if _, err := NewInSet(NewCol(0, vtypes.KindF64), []vtypes.Value{vtypes.StrValue("x")}); err == nil {
		t.Fatal("a VARCHAR member of a DOUBLE IN compiled")
	}
}

// TestArithMapsDictionary: arithmetic between one coded DOUBLE operand
// and a constant runs over the dictionary and returns the operand's codes
// over the mapped dictionary, its rows bit-identical to the plain
// kernel's. The same dictionary maps once; each new one maps into an array
// of its own, so vector.SameDict tells the results apart and an earlier
// result stays as it was. Between two coded operands, or a coded and a
// plain one, the result is plain.
func TestArithMapsDictionary(t *testing.T) {
	col, col2 := NewCol(0, vtypes.KindF64), NewCol(1, vtypes.KindF64)
	one, two := NewConst(vtypes.F64Value(1)), NewConst(vtypes.F64Value(2))
	type arith struct {
		name  string
		build func() (Expr, error)
		ref   func(x, y float64) float64
		coded bool
	}
	mk := func(op algebra.ArithOp, l, r Expr) func() (Expr, error) {
		return func() (Expr, error) { return NewArith(op, l, r) }
	}
	for _, c := range []arith{
		{"1 - x", mk(algebra.OpSub, one, col), func(x, _ float64) float64 { return 1 - x }, true},
		{"x * 2", mk(algebra.OpMul, col, two), func(x, _ float64) float64 { return x * 2 }, true},
		{"2 / x", mk(algebra.OpDiv, two, col), func(x, _ float64) float64 {
			if x == 0 {
				return 0
			}
			return 2 / x
		}, true},
		{"(1 - x) * 2", func() (Expr, error) {
			in, err := NewArith(algebra.OpSub, one, col)
			if err != nil {
				return nil, err
			}
			return NewArith(algebra.OpMul, in, two)
		}, func(x, _ float64) float64 { return (1 - x) * 2 }, true},
		{"x + y", mk(algebra.OpAdd, col, col2), func(x, y float64) float64 { return x + y }, false},
	} {
		e, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		var prev []float64
		var prevVals []uint64
		for step, dict := range [][]float64{fd1, fd1, fd2, slices.Clone(fd1)} {
			for _, plainY := range []bool{false, true} {
				n := 64
				x := codedF64Batch(rng, dict, n, false)
				y := codedF64Batch(rng, fd2, n, plainY)
				b := &vector.Batch{Vecs: []*vector.Vector{x.Vecs[0], y.Vecs[0]}}
				b.SetDense(n)
				sparsen(b)
				out, err := e.Eval(b)
				if err != nil {
					t.Fatal(err)
				}
				if (out.Codes != nil) != c.coded || c.coded && (out.F64 != nil || &out.Codes[0] != &x.Vecs[0].Codes[0]) {
					t.Fatalf("%s step %d: result coded %v, shares the codes %v", c.name, step, out.Codes != nil, out.Codes != nil && &out.Codes[0] == &x.Vecs[0].Codes[0])
				}
				for k := range b.N {
					i := b.LiveIndex(k)
					want := c.ref(x.Vecs[0].F64At(i), y.Vecs[0].F64At(i))
					if got := out.F64At(i); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s step %d row %d: %v, want %v", c.name, step, i, got, want)
					}
				}
				if !c.coded {
					continue
				}
				if same := vector.SameDict(prev, out.DictF64()); same != (step == 1 || plainY) {
					t.Fatalf("%s step %d: result dictionary the same as the last one's: %v", c.name, step, same)
				}
				for i, b := range prevVals {
					if math.Float64bits(prev[i]) != b {
						t.Fatalf("%s step %d: an earlier result's dictionary changed", c.name, step)
					}
				}
				prev, prevVals = out.DictF64(), make([]uint64, len(out.DictF64()))
				for i, v := range prev {
					prevVals[i] = math.Float64bits(v)
				}
			}
		}
	}
}

// BenchmarkDictF64Q6 filters a dense 1 024-row batch of Q6's DOUBLE
// predicate, disc BETWEEN 0.05 AND 0.07 AND qty < 24, the columns coded
// (11 and 50 values) and the same rows plain, and reports ns/row (the
// bench job fails on any allocs/op).
func BenchmarkDictF64Q6(b *testing.B) {
	disc, qty := make([]float64, 11), make([]float64, 50)
	for i := range disc {
		disc[i] = float64(i) / 100
	}
	for i := range qty {
		qty[i] = float64(i + 1)
	}
	for _, plain := range []bool{false, true} {
		name := "coded"
		if plain {
			name = "plain"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			d, q := codedF64Batch(rng, disc, vector.DefaultSize, plain), codedF64Batch(rng, qty, vector.DefaultSize, plain)
			batch := &vector.Batch{Vecs: []*vector.Vector{d.Vecs[0], q.Vecs[0]}}
			between, err := NewBetween(NewCol(0, vtypes.KindF64), vtypes.F64Value(0.05), vtypes.F64Value(0.07))
			if err != nil {
				b.Fatal(err)
			}
			lt, err := NewCmpConst(NewCol(1, vtypes.KindF64), algebra.CmpLt, vtypes.F64Value(24))
			if err != nil {
				b.Fatal(err)
			}
			p := NewAnd(between, lt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.SetDense(vector.DefaultSize)
				if err := p.Filter(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vector.DefaultSize), "ns/row")
		})
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vectorwise/internal/expr"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// packedSortInput builds n rows of (a BIGINT, f DOUBLE, x DOUBLE,
// b BOOLEAN, s VARCHAR, z BIGINT NULL, c DATE, id BIGINT, t VARCHAR
// NULL) in batches of
// batch rows. a takes values in lo … lo+span, repeated so that keys tie;
// its two ends appear only in the second half of the input, and always in
// the last two rows, so a bounded sort that cut before then must widen
// a's range afterwards. f holds ±0, NaN (two payloads), ±Inf and
// ordinary values; x is f without -0 and NaN; s shares 12-byte prefixes
// that differ after them; z is a with NULLs; c is a constant; id numbers
// the rows; t is s with NULLs that keep differing strings underneath, as
// a caller's batch may.
func packedSortInput(rng *rand.Rand, n, batch int, lo int64, span uint64) (*vtypes.Schema, []*vector.Batch) {
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "a", Kind: vtypes.KindI64},
		vtypes.Column{Name: "f", Kind: vtypes.KindF64},
		vtypes.Column{Name: "x", Kind: vtypes.KindF64},
		vtypes.Column{Name: "b", Kind: vtypes.KindBool},
		vtypes.Column{Name: "s", Kind: vtypes.KindStr},
		vtypes.Column{Name: "z", Kind: vtypes.KindI64, Nullable: true},
		vtypes.Column{Name: "c", Kind: vtypes.KindDate},
		vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "t", Kind: vtypes.KindStr, Nullable: true})
	inner := []int64{lo + int64(span/3), lo + int64(span/2), lo + int64(span/2) + 1, lo + int64(span-span/4)}
	fs := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001), math.Inf(1), math.Inf(-1), 1.5, -2.25, 1e300, 5e-324}
	xs := []float64{0, math.Inf(1), math.Inf(-1), 1.5, -2.25, 1e300, 5e-324, -1e-300}
	ss := []string{"", "b", "commonprefixb", "commonprefix", "commonprefixa", "commonprefix\x00", "common"}
	var out []*vector.Batch
	for at := 0; at < n; at += batch {
		m := min(batch, n-at)
		b := vector.NewBatch(schema, m)
		b.Vecs[5].EnsureNulls()
		b.Vecs[8].EnsureNulls()
		for i := range m {
			r := at + i
			a := inner[rng.Intn(len(inner))]
			if r >= n/2 && rng.Intn(3) == 0 || r >= n-2 {
				a = lo + int64(span*uint64(r&1)) // both ends, the last two rows among them
			}
			b.Vecs[0].I64[i] = a
			b.Vecs[1].F64[i] = fs[rng.Intn(len(fs))]
			b.Vecs[2].F64[i] = xs[rng.Intn(len(xs))]
			b.Vecs[3].B[i] = rng.Intn(2) == 0
			b.Vecs[4].Str[i] = ss[rng.Intn(len(ss))]
			if rng.Intn(4) == 0 {
				b.Vecs[5].Nulls[i] = true
			} else {
				b.Vecs[5].I64[i] = a
			}
			b.Vecs[6].I64[i] = 7
			b.Vecs[7].I64[i] = int64(r)
			b.Vecs[8].Str[i] = ss[rng.Intn(len(ss))]
			b.Vecs[8].Nulls[i] = rng.Intn(3) == 0
		}
		b.SetDense(m)
		out = append(out, b)
	}
	return schema, out
}

// TestSortPackedEntriesAgainstStableOracle runs Sort and NewTopN over
// keys packed at every width a frame-of-reference field can take —
// none for a constant key, the ranges 2^k − 1 and 2^k at k = 8, 32 and
// 63, MinInt64…MaxInt64, and a 56-bit range that with 256 and 257 rows
// makes entries of exactly 64 and 65 bits — and over 1, 2, 2^k and
// 2^k + 1 rows at vector sizes 1, 3 and 1024, against sort.SliceStable
// over vtypes.Value.Compare. Every output column must hold the very
// value stored, DOUBLE bits included: a key read back out of the entries
// instead of gathered must not turn a -0 into +0 or change a NaN.
func TestSortPackedEntriesAgainstStableOracle(t *testing.T) {
	ranges := []struct {
		lo   int64
		span uint64
	}{
		{-5, 1<<8 - 1}, {-5, 1 << 8},
		{1 << 40, 1<<32 - 1}, {1 << 40, 1 << 32},
		{math.MinInt64, 1<<63 - 1}, {math.MinInt64, 1 << 63},
		{math.MinInt64, math.MaxUint64},
		{100, 1<<56 - 1},
	}
	specs := [][]struct {
		col  int
		desc bool
	}{
		{{0, false}},
		{{0, true}, {3, false}},
		{{6, false}},
		{{6, true}, {0, false}},
		{{1, false}, {0, true}},
		{{2, true}, {0, false}},
		{{5, false}, {0, true}},
		{{5, true}},
		{{4, false}, {0, false}},
		{{0, true}, {4, true}},
		{{3, true}, {4, false}, {2, false}},
		{{4, true}, {5, false}},
		{{8, false}, {0, false}},
		{{8, true}, {4, true}},
		{{8, false}},
	}
	for ri, rg := range ranges {
		for _, n := range []int{1, 2, 256, 257} {
			schema, batches := packedSortInput(rand.New(rand.NewSource(int64(ri*1000+n))), n, 5, rg.lo, rg.span)
			in := boxedRows(batches)
			for _, spec := range specs {
				var keys []SortKey
				for _, k := range spec {
					keys = append(keys, SortKey{Expr: expr.NewCol(k.col, schema.Col(k.col).Kind), Desc: k.desc})
				}
				want := slices.Clone(in)
				sort.SliceStable(want, func(a, b int) bool {
					for _, k := range spec {
						if c := want[a][k.col].Compare(want[b][k.col]); c != 0 {
							return (c < 0) != k.desc
						}
					}
					return false
				})
				for _, vecSize := range []int{1, 3, 1024} {
					for _, limit := range []int{-1, 1, 7} {
						name := fmt.Sprintf("range [%d, +%d] rows %d keys %v vec %d limit %d", rg.lo, rg.span, n, spec, vecSize, limit)
						src := &batchSource{schema: schema, batches: batches}
						srt, m := NewSort(src, keys), n
						if limit >= 0 {
							srt, m = NewTopN(src, keys, int64(limit)), min(limit, n)
						}
						srt.vecSize = vecSize
						got := collectBounded(t, srt, vecSize)
						if len(got) != m {
							t.Fatalf("%s: %d rows, want %d", name, len(got), m)
						}
						for i, row := range got {
							if !sameRow(row, want[i]) {
								t.Fatalf("%s: row %d is %v, want %v", name, i, row, want[i])
							}
						}
					}
				}
			}
		}
	}
}

// sameRow: the same values, NULLs in the same places, and DOUBLEs with
// the same bits.
func sameRow(a, b vtypes.Row) bool {
	return slices.EqualFunc(a, b, func(x, y vtypes.Value) bool {
		if x.Null || y.Null {
			return x.Null == y.Null
		}
		if x.Kind.StorageClass() == vtypes.ClassF64 {
			return math.Float64bits(x.F64) == math.Float64bits(y.F64)
		}
		return x.Equal(y)
	})
}

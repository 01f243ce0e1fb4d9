package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/compress"
	"vectorwise/internal/vtypes"
)

// statsShapes draws a group's values for one column: each shape is the
// kind of data one codec wins on, so that over a table's groups every
// codec codes some chunk.
var statsShapes = map[vtypes.Class][]func(rng *rand.Rand, n int) any{
	vtypes.ClassI64: {
		func(rng *rand.Rand, n int) any { // plain: full 64-bit range
			return fill(n, func(int) int64 { return int64(rng.Uint64()) })
		},
		func(rng *rand.Rand, n int) any { // PFOR: a 20-bit range off a base, some far exceptions
			base := rng.Int63n(1<<40) - 1<<39
			return fill(n, func(int) int64 {
				if rng.Intn(50) == 0 {
					return base + rng.Int63n(1<<40)
				}
				return base + rng.Int63n(1<<20)
			})
		},
		func(rng *rand.Rand, n int) any { // PFOR-DELTA: ascending, wide, small steps
			v := rng.Int63n(1 << 50)
			return fill(n, func(int) int64 { v += 1000 + rng.Int63n(8); return v })
		},
		func(rng *rand.Rand, n int) any { // RLE: long runs of few values
			v := rng.Int63n(1 << 40)
			return fill(n, func(i int) int64 {
				if i%64 == 0 {
					v = rng.Int63n(1<<40) - 1<<39
				}
				return v
			})
		},
		func(rng *rand.Rand, n int) any { // narrow, sometimes descending
			lo, step := rng.Int63n(1000)-500, int64(rng.Intn(3)-1)
			return fill(n, func(i int) int64 { return lo + step*int64(i) + rng.Int63n(3) })
		},
	},
	vtypes.ClassF64: {
		func(rng *rand.Rand, n int) any { // plain
			return fill(n, func(int) float64 { return rng.NormFloat64() * 1e6 })
		},
		func(rng *rand.Rand, n int) any { // dictionary: few distinct, -0 and +0 among them
			d := []float64{0, math.Copysign(0, -1), 2.5, -7.25, 1e300, -1e-300, 12}
			return fill(n, func(int) float64 { return d[rng.Intn(len(d))] })
		},
		func(rng *rand.Rand, n int) any { // a NaN: no statistics
			vals := fill(n, func(int) float64 { return float64(rng.Intn(10)) })
			vals[rng.Intn(n)] = math.NaN()
			return vals
		},
	},
	vtypes.ClassStr: {
		func(rng *rand.Rand, n int) any { // dictionary
			return fill(n, func(int) string { return fmt.Sprint("flag-", rng.Intn(40)) })
		},
		func(rng *rand.Rand, n int) any { // FSST: comment-like, distinct
			words := []string{"carefully", "final", "deposits", "sleep", "quickly", "bold", "ideas", "the", "about", "furiously"}
			return fill(n, func(i int) string {
				var sb strings.Builder
				for w := range 4 + rng.Intn(6) {
					if w > 0 {
						sb.WriteByte(' ')
					}
					sb.WriteString(words[rng.Intn(len(words))])
				}
				return fmt.Sprint(sb.String(), " ", i)
			})
		},
		func(rng *rand.Rand, n int) any { // plain: random bytes, the empty string among them
			return fill(n, func(int) string {
				b := make([]byte, rng.Intn(12))
				rng.Read(b)
				return string(b)
			})
		},
	},
	vtypes.ClassBool: {
		func(rng *rand.Rand, n int) any { return fill(n, func(int) bool { return rng.Intn(3) == 0 }) },
	},
}

func fill[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// TestChunkStatisticsAreTheData: over random tables of every kind and
// codec, NULLable and not, built row by row and column-wise, each chunk's
// statistics are exactly what its decoded values say: MinI64/MaxI64,
// MinF64/MaxF64 (none when a NaN is present), MinStr/MaxStr over every
// row, the safe value under a NULL included; Sorted for a BIGINT chunk
// holding no NULL whose values never decrease, and never otherwise; the
// null chunk the NULLs appended. The values decode to what was appended.
// A statistic the data does not bear out would let Skip.Refute drop a row
// group whose rows match, with no error.
func TestChunkStatisticsAreTheData(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	kinds := []vtypes.Kind{vtypes.KindI64, vtypes.KindDate, vtypes.KindF64, vtypes.KindStr, vtypes.KindBool}
	codecs := map[compress.Codec]bool{}
	for round := range 40 {
		var cols []vtypes.Column
		for i, k := range kinds {
			cols = append(cols, vtypes.Column{Name: fmt.Sprint("c", i), Kind: k},
				vtypes.Column{Name: fmt.Sprint("n", i), Kind: k, Nullable: true})
		}
		schema := vtypes.NewSchema(cols...)
		groupRows, groups := 1+rng.Intn(600), 1+rng.Intn(4)
		rows := (groups-1)*groupRows + 1 + rng.Intn(groupRows)
		// Values and NULLs per column, drawn a group at a time.
		vals, nulls := make([]any, len(cols)), make([][]bool, len(cols))
		for c, col := range cols {
			var all any
			for lo := 0; lo < rows; lo += groupRows {
				shapes := statsShapes[col.Kind.StorageClass()]
				part := shapes[rng.Intn(len(shapes))](rng, min(groupRows, rows-lo))
				all = appendAny(all, part)
			}
			vals[c] = all
			if col.Nullable {
				rate := []int{0, 2, 10, 1}[rng.Intn(4)] // none, half, a tenth, all
				nulls[c] = fill(rows, func(int) bool { return rate > 0 && rng.Intn(rate) == 0 })
				zeroUnder(all, nulls[c])
			}
		}
		b := NewBuilder("t", schema, groupRows)
		if round%2 == 0 {
			if _, err := b.AppendColumns(vals, nulls); err != nil {
				t.Fatal(err)
			}
		} else {
			for r := range rows {
				row := make(vtypes.Row, len(cols))
				for c, col := range cols {
					row[c] = valueAt(col.Kind, vals[c], r)
					if nulls[c] != nil && nulls[c][r] {
						row[c] = vtypes.NullValue(col.Kind)
					}
				}
				if err := b.AppendRow(row); err != nil {
					t.Fatal(err)
				}
			}
		}
		tbl, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for g, gm := range tbl.Meta.Groups {
			lo := g * groupRows
			for c, col := range cols {
				cm := gm.Cols[c]
				codecs[cm.Codec] = true
				v, err := DecodedFetcher{}.FetchColumn(tbl, g, c)
				if err != nil {
					t.Fatalf("round %d group %d %s: %v", round, g, col.Name, err)
				}
				label := fmt.Sprintf("round %d group %d column %s (%v, %v)", round, g, col.Name, col.Kind, cm.Codec)
				var want []bool
				if nulls[c] != nil {
					want = nulls[c][lo : lo+gm.Rows]
				}
				if !slices.Equal(v.Nulls, want) || (v.Nulls == nil) != (want == nil) {
					t.Fatalf("%s: null chunk %v, appended %v", label, v.Nulls, want)
				}
				noNull := !slices.Contains(want, true)
				switch col.Kind.StorageClass() {
				case vtypes.ClassI64:
					in := vals[c].([]int64)[lo : lo+gm.Rows]
					if !slices.Equal(v.I64, in) {
						t.Fatalf("%s: decodes to other values than appended", label)
					}
					mn, mx := slices.Min(v.I64), slices.Max(v.I64)
					sorted := noNull && slices.IsSorted(v.I64)
					if !cm.HasStats || cm.MinI64 != mn || cm.MaxI64 != mx || cm.Sorted != sorted {
						t.Fatalf("%s: stats %v [%d, %d] sorted %v, data [%d, %d] sorted %v", label, cm.HasStats, cm.MinI64, cm.MaxI64, cm.Sorted, mn, mx, sorted)
					}
				case vtypes.ClassF64:
					in := vals[c].([]float64)[lo : lo+gm.Rows]
					if !slices.EqualFunc(v.F64, in, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
						t.Fatalf("%s: decodes to other values than appended", label)
					}
					nan := slices.ContainsFunc(v.F64, math.IsNaN)
					if cm.HasStats == nan || cm.Sorted {
						t.Fatalf("%s: stats %v sorted %v, data holds a NaN: %v", label, cm.HasStats, cm.Sorted, nan)
					}
					if !nan {
						if mn, mx := slices.Min(v.F64), slices.Max(v.F64); cm.MinF64 != mn || cm.MaxF64 != mx {
							t.Fatalf("%s: stats [%g, %g], data [%g, %g]", label, cm.MinF64, cm.MaxF64, mn, mx)
						}
					}
				case vtypes.ClassStr:
					in := vals[c].([]string)[lo : lo+gm.Rows]
					if !slices.Equal(v.Str, in) {
						t.Fatalf("%s: decodes to other values than appended", label)
					}
					mn, mx := slices.Min(v.Str), slices.Max(v.Str)
					if !cm.HasStats || cm.MinStr != mn || cm.MaxStr != mx || cm.Sorted {
						t.Fatalf("%s: stats %v [%q, %q] sorted %v, data [%q, %q]", label, cm.HasStats, cm.MinStr, cm.MaxStr, cm.Sorted, mn, mx)
					}
				case vtypes.ClassBool:
					if !slices.Equal(v.B, vals[c].([]bool)[lo:lo+gm.Rows]) {
						t.Fatalf("%s: decodes to other values than appended", label)
					}
					if cm.HasStats || cm.Sorted {
						t.Fatalf("%s: a BOOLEAN chunk carries statistics %+v", label, cm)
					}
				}
			}
		}
	}
	for _, c := range []compress.Codec{compress.CodecPlainI64, compress.CodecPFOR, compress.CodecPFORDelta, compress.CodecRLE,
		compress.CodecPlainF64, compress.CodecDictF64, compress.CodecPlainStr, compress.CodecDict, compress.CodecFSST, compress.CodecBoolPack} {
		if !codecs[c] {
			t.Errorf("no chunk was coded %v", c)
		}
	}
}

// appendAny appends part to all, two slices of one element type.
func appendAny(all, part any) any {
	switch p := part.(type) {
	case []int64:
		a, _ := all.([]int64)
		return append(a, p...)
	case []float64:
		a, _ := all.([]float64)
		return append(a, p...)
	case []string:
		a, _ := all.([]string)
		return append(a, p...)
	default:
		a, _ := all.([]bool)
		return append(a, p.([]bool)...)
	}
}

// zeroUnder writes the safe value (zero, "") under every NULL of vals, as
// the builder stores it.
func zeroUnder(vals any, nulls []bool) {
	for r, null := range nulls {
		if !null {
			continue
		}
		switch v := vals.(type) {
		case []int64:
			v[r] = 0
		case []float64:
			v[r] = 0
		case []string:
			v[r] = ""
		case []bool:
			v[r] = false
		}
	}
}

// valueAt boxes row r of a column slice as a value of kind k.
func valueAt(k vtypes.Kind, vals any, r int) vtypes.Value {
	switch v := vals.(type) {
	case []int64:
		return vtypes.Value{Kind: k, I64: v[r]}
	case []float64:
		return vtypes.F64Value(v[r])
	case []string:
		return vtypes.StrValue(v[r])
	default:
		return vtypes.BoolValue(vals.([]bool)[r])
	}
}

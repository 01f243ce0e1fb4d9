package expr

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// codedBatch returns a one-column VARCHAR batch of n rows drawn from dict:
// coded (codes, no strings) unless plain is set.
func codedBatch(rng *rand.Rand, dict []string, n int, plain bool) *vector.Batch {
	b := vector.NewBatchOfKinds([]vtypes.Kind{vtypes.KindStr}, n)
	v := b.Vecs[0]
	codes := make([]uint8, n)
	for i := range n {
		codes[i] = uint8(rng.Intn(len(dict)))
		v.Str[i] = dict[codes[i]]
	}
	if !plain {
		v.Str, v.Codes, v.Dict = nil, codes, dict
	}
	b.SetDense(n)
	return b
}

// likeOracle matches s against a LIKE pattern through a regular
// expression, independently of the engine's matcher.
func likeOracle(pattern, s string) bool {
	var re strings.Builder
	re.WriteString("^(?s)")
	for _, r := range pattern {
		switch r {
		case '%':
			re.WriteString(".*")
		case '_':
			re.WriteString(".")
		default:
			re.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	re.WriteString("$")
	return regexp.MustCompile(re.String()).MatchString(s)
}

// TestStrPredsOnDictCodes runs every single-column VARCHAR predicate —
// the six comparisons, BETWEEN, IN, LIKE and NOT LIKE with % and _ — over
// batches whose dictionaries code the same values differently, return
// after another dictionary, carry no codes, carry a null indicator, or hold
// 200 entries, dense and behind a selection, at batch sizes 1, 3 and 1024. Literals
// include one absent from every dictionary and ”. Each result must be
// the rows whose string an oracle over Go strings accepts.
func TestStrPredsOnDictCodes(t *testing.T) {
	d1 := []string{"MAIL", "SHIP", "AIR", "RAIL", ""}
	d2 := []string{"RAIL", "AIR", "TRUCK", "MAIL", "SHIP", "REG AIR"}
	d3 := slices.Clone(d2) // 200 entries: judged a block at a time
	for i := len(d3); i < 200; i++ {
		d3 = append(d3, fmt.Sprintf("M%03d", i))
	}
	str := vtypes.StrValue
	type pred struct {
		name string
		make func() (Pred, error)
		want func(s string) bool
	}
	col := NewCol(0, vtypes.KindStr)
	var preds []pred
	for _, lit := range []string{"MAIL", "FOB", "", "RAIL"} {
		for op, cmp := range map[CmpOp]func(c int) bool{
			CmpEq: func(c int) bool { return c == 0 }, CmpNe: func(c int) bool { return c != 0 },
			CmpLt: func(c int) bool { return c < 0 }, CmpLe: func(c int) bool { return c <= 0 },
			CmpGt: func(c int) bool { return c > 0 }, CmpGe: func(c int) bool { return c >= 0 },
		} {
			preds = append(preds, pred{fmt.Sprintf("%v %q", op, lit),
				func() (Pred, error) { return NewCmpConst(col, op, str(lit)) },
				func(s string) bool { return cmp(strings.Compare(s, lit)) }})
		}
	}
	for _, r := range [][2]string{{"AIR", "REG AIR"}, {"", "MAIL"}, {"B", "C"}} {
		preds = append(preds, pred{fmt.Sprintf("BETWEEN %q AND %q", r[0], r[1]),
			func() (Pred, error) { return NewBetween(col, str(r[0]), str(r[1])) },
			func(s string) bool { return r[0] <= s && s <= r[1] }})
	}
	for _, list := range [][]string{{"MAIL", "SHIP"}, {"TRUCK"}, {"FOB"}, {"AIR", "RAIL", ""}} {
		vals := make([]vtypes.Value, len(list))
		for i, s := range list {
			vals[i] = str(s)
		}
		preds = append(preds, pred{fmt.Sprintf("IN %q", list),
			func() (Pred, error) { return NewInSet(col, vals) },
			func(s string) bool { return slices.Contains(list, s) }})
	}
	for _, pattern := range []string{"%AIR", "_AIL", "%A%", "R_G%", "FOB", "", "%", "M1_7"} {
		for _, negate := range []bool{false, true} {
			preds = append(preds, pred{fmt.Sprintf("LIKE %q negate=%v", pattern, negate),
				func() (Pred, error) { return NewLike(col, pattern, negate) },
				func(s string) bool { return likeOracle(pattern, s) != negate }})
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 1024} {
		for _, pc := range preds {
			p, err := pc.make()
			if err != nil {
				t.Fatal(err)
			}
			for step, shape := range []struct {
				dict         []string
				plain, nulls bool
			}{
				{dict: d1}, {dict: d2}, {dict: d1}, {dict: slices.Clone(d1)},
				{dict: d2, plain: true}, {dict: d2}, {dict: d1, nulls: true}, {dict: d1}, {dict: d3},
			} {
				for _, sparse := range []bool{false, true} {
					b := codedBatch(rng, shape.dict, n, shape.plain)
					if shape.nulls {
						b.Vecs[0].EnsureNulls()
					}
					if sparse {
						sel := b.MutableSel(n)
						k := 0
						for i := 0; i < n; i += 2 {
							sel[k] = int32(i)
							k++
						}
						b.SetSel(sel, k)
					}
					var want []int
					for k := range b.N {
						if i := b.LiveIndex(k); pc.want(b.Vecs[0].StrAt(i)) {
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

// TestCmpColsFillsCodedSides: a comparison of two VARCHAR columns fills a
// coded side's live rows into the predicate's own buffer and never writes
// the input vectors.
func TestCmpColsFillsCodedSides(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dict := []string{"b", "a", "c"}
	l, r := codedBatch(rng, dict, 64, false), codedBatch(rng, dict, 64, true)
	b := &vector.Batch{Vecs: []*vector.Vector{l.Vecs[0], r.Vecs[0]}}
	b.SetDense(64)
	sel := b.MutableSel(64)
	k := 0
	for i := 1; i < 64; i += 3 {
		sel[k] = int32(i)
		k++
	}
	b.SetSel(sel, k)
	var want []int
	for _, i := range sel[:k] {
		if b.Vecs[0].StrAt(int(i)) < b.Vecs[1].Str[i] {
			want = append(want, int(i))
		}
	}
	p, err := NewCmpCols(NewCol(0, vtypes.KindStr), CmpLt, NewCol(1, vtypes.KindStr))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Filter(b); err != nil {
		t.Fatal(err)
	}
	if got := live(b); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	if b.Vecs[0].Str != nil || b.Vecs[0].Codes == nil {
		t.Fatal("the coded input was written")
	}
}

// BenchmarkDictPredicates filters a dense 1 024-row VARCHAR vector of
// seven shipping modes with LIKE and with BETWEEN, the vector coded and
// the same rows plain, and reports ns/row (the bench job fails on any
// allocs/op).
func BenchmarkDictPredicates(b *testing.B) {
	modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	col := NewCol(0, vtypes.KindStr)
	for _, pc := range []struct {
		name string
		pred func() (Pred, error)
	}{
		{"like", func() (Pred, error) { return NewLike(col, "%AI%", false) }},
		{"between", func() (Pred, error) { return NewBetween(col, vtypes.StrValue("MAIL"), vtypes.StrValue("SHIP")) }},
	} {
		for _, plain := range []bool{false, true} {
			name := pc.name + "/coded"
			if plain {
				name = pc.name + "/plain"
			}
			b.Run(name, func(b *testing.B) {
				batch := codedBatch(rand.New(rand.NewSource(1)), modes, vector.DefaultSize, plain)
				p, err := pc.pred()
				if err != nil {
					b.Fatal(err)
				}
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
}

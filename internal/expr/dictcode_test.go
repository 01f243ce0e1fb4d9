package expr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// codedBatch returns a one-column VARCHAR batch of n rows whose strings
// are read through dict, carrying the codes unless plain is set.
func codedBatch(rng *rand.Rand, dict []string, n int, plain bool) *vector.Batch {
	b := vector.NewBatchOfKinds([]vtypes.Kind{vtypes.KindStr}, n)
	v := b.Vecs[0]
	v.Codes, v.Dict = make([]uint8, n), dict
	for i := range n {
		v.Codes[i] = uint8(rng.Intn(len(dict)))
		v.Str[i] = dict[v.Codes[i]]
	}
	if plain {
		v.Codes, v.Dict = nil, nil
	}
	b.SetDense(n)
	return b
}

// TestInSetOnDictCodes filters batches whose dictionaries code the same
// values differently, return after another dictionary, carry no codes, or
// carry a null indicator, with IN lists of one and two members and one
// matching nothing, dense and behind a selection, at batch sizes 1, 3 and
// 1024. Each result must be the rows whose string is in the list.
func TestInSetOnDictCodes(t *testing.T) {
	d1 := []string{"MAIL", "SHIP", "AIR", "RAIL"}
	d2 := []string{"RAIL", "AIR", "TRUCK", "MAIL", "SHIP"}
	lists := [][]string{{"MAIL", "SHIP"}, {"TRUCK"}, {"FOB"}, {"AIR", "RAIL", "MAIL"}}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 1024} {
		for _, list := range lists {
			vals := make([]vtypes.Value, len(list))
			for i, s := range list {
				vals[i] = vtypes.StrValue(s)
			}
			p, err := NewInSet(NewCol(0, vtypes.KindStr), vals)
			if err != nil {
				t.Fatal(err)
			}
			for step, shape := range []struct {
				dict         []string
				plain, nulls bool
			}{
				{dict: d1}, {dict: d2}, {dict: d1}, {dict: slices.Clone(d1)},
				{dict: d2, plain: true}, {dict: d2}, {dict: d1, nulls: true}, {dict: d1},
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
						if i := b.LiveIndex(k); slices.Contains(list, b.Vecs[0].Str[i]) {
							want = append(want, i)
						}
					}
					if err := p.Filter(b); err != nil {
						t.Fatal(err)
					}
					if got := live(b); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("n=%d IN %v step %d sparse=%v: rows %v, want %v", n, list, step, sparse, got, want)
					}
				}
			}
		}
	}
}

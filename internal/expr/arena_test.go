package expr

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// commentBatch returns a dense 1 024-row VARCHAR batch of l_comment-like
// text, three to six words of TPC-H's vocabulary a row, as an arena over
// one bytes buffer or as strings.
func commentBatch(rng *rand.Rand, arena bool) *vector.Batch {
	words := []string{"furiously", "special", "requests", "carefully", "final", "deposits", "quickly",
		"ironic", "packages", "accounts", "blithely", "regular", "pending", "express", "theodolites"}
	v := vector.New(vtypes.KindStr, vector.DefaultSize)
	off, bytes := []uint32{0}, []byte(nil)
	for i := range v.Str {
		row := make([]string, 3+rng.Intn(4))
		for w := range row {
			row[w] = words[rng.Intn(len(words))]
		}
		v.Str[i] = strings.Join(row, " ")
		bytes = append(bytes, v.Str[i]...)
		off = append(off, uint32(len(bytes)))
	}
	if arena {
		v.Str, v.Off, v.Shared = nil, off, &vector.Shared{Bytes: bytes}
	}
	return &vector.Batch{Vecs: []*vector.Vector{v}}
}

// BenchmarkLikeArena filters like_str's l_comment LIKE '%special%' over a
// dense 1 024-row batch of comments, an arena and the same rows as
// strings, and reports ns/row (the bench job fails on any allocs/op).
func BenchmarkLikeArena(b *testing.B) {
	for _, arena := range []bool{true, false} {
		name := "str"
		if arena {
			name = "arena"
		}
		b.Run(name, func(b *testing.B) {
			batch := commentBatch(rand.New(rand.NewSource(1)), arena)
			p, err := NewLike(NewCol(0, vtypes.KindStr), "%special%", false)
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

// TestArenaPredicates: every VARCHAR predicate with constants selects the
// same rows of an arena as of the same rows held as strings, dense and
// after an earlier conjunct, and never writes the arena.
func TestArenaPredicates(t *testing.T) {
	col := NewCol(0, vtypes.KindStr)
	preds := map[string]func() (Pred, error){
		"like":     func() (Pred, error) { return NewLike(col, "%special%", false) },
		"not like": func() (Pred, error) { return NewLike(col, "f%s", true) },
		"<":        func() (Pred, error) { return NewCmpConst(col, CmpLt, vtypes.StrValue("ironic")) },
		"=":        func() (Pred, error) { return NewCmpConst(col, CmpEq, vtypes.StrValue("final deposits quickly")) },
		"between": func() (Pred, error) {
			return NewBetween(col, vtypes.StrValue("blithely"), vtypes.StrValue("pending"))
		},
		"in": func() (Pred, error) {
			return NewInSet(col, []vtypes.Value{vtypes.StrValue("ironic ironic ironic"), vtypes.StrValue("final deposits quickly")})
		},
	}
	for name, mk := range preds {
		var want []int32
		for _, arena := range []bool{false, true} {
			first, err := NewLike(col, "%s%", false)
			if err != nil {
				t.Fatal(err)
			}
			p, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			for _, chain := range []bool{false, true} {
				b := commentBatch(rand.New(rand.NewSource(3)), arena)
				b.SetDense(vector.DefaultSize)
				if chain {
					if err := first.Filter(b); err != nil {
						t.Fatal(err)
					}
				}
				if err := p.Filter(b); err != nil {
					t.Fatal(err)
				}
				got := append([]int32{}, b.Sel...)
				if b.Sel == nil {
					t.Fatalf("%s: no selection", name)
				}
				if !arena {
					if !chain {
						want = got
					}
					continue
				}
				if !chain && !slices.Equal(got, want) {
					t.Fatalf("%s: arena selects %d rows, strings %d", name, len(got), len(want))
				}
				if b.Vecs[0].Off == nil || b.Vecs[0].Str != nil {
					t.Fatalf("%s: the arena input was written", name)
				}
			}
		}
	}
}

package expr

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/compress"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// commentBatch returns a dense 1 024-row VARCHAR batch of l_comment-like
// text, three to six words of TPC-H's vocabulary a row, laid out as
// strings ("str"), as an arena over one bytes buffer ("arena") or as an
// FSST arena over the rows' codes ("fsst").
func commentBatch(t testing.TB, rng *rand.Rand, layout string) *vector.Batch {
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
	switch layout {
	case "arena":
		v.Str, v.Off, v.Shared = nil, off, &vector.Shared{Bytes: bytes}
	case "fsst":
		chunk, _, err := compress.EncodeStr(v.Str)
		if err != nil {
			t.Fatal(err)
		}
		sh := new(vector.Shared)
		if v.Off, sh.Bytes, sh.Symbols, err = compress.DecompressStrArena(chunk); err != nil || sh.Symbols == nil {
			t.Fatalf("comments not coded as FSST (err %v)", err)
		}
		v.Str, v.Shared = nil, sh
	}
	return &vector.Batch{Vecs: []*vector.Vector{v}}
}

// BenchmarkLikeArena filters like_str's l_comment LIKE '%special%' over a
// dense 1 024-row batch of comments, an arena, an FSST arena (the
// automaton on codes) and the same rows as strings, and reports ns/row
// (the bench job fails on any allocs/op).
func BenchmarkLikeArena(b *testing.B) {
	for _, name := range []string{"arena", "fsst", "str"} {
		b.Run(name, func(b *testing.B) {
			batch := commentBatch(b, rand.New(rand.NewSource(1)), name)
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
// same rows of an arena, plain or FSST, as of the same rows held as
// strings, dense and after an earlier conjunct, and never writes the
// arena.
func TestArenaPredicates(t *testing.T) {
	col := NewCol(0, vtypes.KindStr)
	preds := map[string]func() (Pred, error){
		"like":     func() (Pred, error) { return NewLike(col, "%special%", false) },
		"not like": func() (Pred, error) { return NewLike(col, "f%s", true) },
		"<":        func() (Pred, error) { return NewCmpConst(col, algebra.CmpLt, vtypes.StrValue("ironic")) },
		"=": func() (Pred, error) {
			return NewCmpConst(col, algebra.CmpEq, vtypes.StrValue("final deposits quickly"))
		},
		"between": func() (Pred, error) {
			return NewBetween(col, vtypes.StrValue("blithely"), vtypes.StrValue("pending"))
		},
		"in": func() (Pred, error) {
			return NewInSet(col, []vtypes.Value{vtypes.StrValue("ironic ironic ironic"), vtypes.StrValue("final deposits quickly")})
		},
	}
	for name, mk := range preds {
		var want []int32
		for _, layout := range []string{"str", "arena", "fsst"} {
			first, err := NewLike(col, "%s%", false)
			if err != nil {
				t.Fatal(err)
			}
			p, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			for _, chain := range []bool{false, true} {
				b := commentBatch(t, rand.New(rand.NewSource(3)), layout)
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
				if layout == "str" {
					if !chain {
						want = got
					}
					continue
				}
				if !chain && !slices.Equal(got, want) {
					t.Fatalf("%s: %s selects %d rows, strings %d", name, layout, len(got), len(want))
				}
				if b.Vecs[0].Off == nil || b.Vecs[0].Str != nil {
					t.Fatalf("%s: the arena input was written", name)
				}
			}
		}
	}
}

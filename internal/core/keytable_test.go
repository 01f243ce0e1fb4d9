package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// TestKeyTableRunsEdges drives keyTable.runs batch by batch, on its
// numbering path and on a payload join's stored path (a key's id is its
// first row's stored row, the batch's row i being stored row base+i; a
// dead row is a NULL key, stored and never resolved), against the per-row definition: a row opens a key when none is open or
// its key differs from the last one consumed. The shapes: a first key of
// MinInt64, runs across batches, a lower key under a dead row, and a key
// going on across reset.
func TestKeyTableRunsEdges(t *testing.T) {
	const minI = math.MinInt64
	type batch struct {
		keys  []int64
		sel   []int32
		reset bool // reset the table before the batch (an aggregate's flush)
	}
	cases := []struct {
		name    string
		batches []batch
	}{
		{"first key MinInt64", []batch{{keys: []int64{minI, minI, minI + 1}}, {keys: []int64{minI + 1, 5}}}},
		{"MinInt64 alone across batches", []batch{{keys: []int64{minI}}, {keys: []int64{minI, minI}}}},
		{"runs across batches", []batch{{keys: []int64{1, 2, 2}}, {keys: []int64{2, 2, 3}}, {keys: []int64{3}}}},
		{"lower key under a dead row", []batch{{keys: []int64{3, 1, 5, 5}, sel: []int32{0, 2, 3}}, {keys: []int64{0, 5}, sel: []int32{1}}}},
		{"reset opens a key", []batch{{keys: []int64{3, 4}}, {keys: []int64{4, 4, 6}, reset: true}}},
	}
	for _, stored := range []bool{false, true} {
		for _, c := range cases {
			if stored && slices.ContainsFunc(c.batches, func(b batch) bool { return b.reset }) {
				continue // a join's build never resets
			}
			name := fmt.Sprintf("%s/stored=%v", c.name, stored)
			var tab keyTable
			tab.init(newColBufs(vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64})), false)
			tab.stored = stored
			// The per-row model: the open key's id, the last key, the next
			// id and the keys numbered.
			run, last, numbered, nextID := int64(-1), int64(minI), []int64(nil), int64(0)
			for bi, bt := range c.batches {
				b := vector.NewBatch(vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}), len(bt.keys))
				copy(b.Vecs[0].I64, bt.keys)
				if b.SetDense(len(bt.keys)); bt.sel != nil {
					b.SetSel(bt.sel, len(bt.sel))
				}
				if bt.reset {
					tab.reset()
					run, numbered, nextID = -1, nil, 0
				}
				if err := tab.eval([]Expr{col(0, vtypes.KindI64)}, b, true); err != nil {
					t.Fatal(err)
				}
				tab.base = int32(nextID)
				want := make([]uint32, len(bt.keys))
				for k := 0; k < b.N; k++ {
					i := b.LiveIndex(k)
					if key := bt.keys[i]; run < 0 || key != last {
						run, last = nextID, key
						if stored {
							run += int64(i)
						} else {
							nextID++
							numbered = append(numbered, key)
						}
					}
					want[i] = uint32(run)
				}
				if stored {
					nextID += int64(len(bt.keys))
				}
				tab.runs(b.Sel, b.N)
				for k := 0; k < b.N; k++ {
					if i := b.LiveIndex(k); tab.ids[i] != want[i] {
						t.Fatalf("%s: batch %d row %d: id %d, want %d", name, bi, i, tab.ids[i], want[i])
					}
				}
				if !stored {
					if tab.n != len(numbered) || tab.keys[0].n != len(numbered) {
						t.Fatalf("%s: batch %d: %d keys numbered, %d stored, want %d", name, bi, tab.n, tab.keys[0].n, len(numbered))
					}
					for g, key := range numbered {
						if got := chunkAt(tab.keys[0].i64, uint32(g)); got != key {
							t.Fatalf("%s: key %d stored as %d, want %d", name, g, got, key)
						}
					}
				}
			}
		}
	}
}

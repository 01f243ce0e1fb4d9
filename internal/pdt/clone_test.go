package pdt

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vectorwise/internal/vtypes"
)

// checkCounts verifies the bookkeeping a position lookup trusts: every
// chunk non-empty and within maxChunk, its Ins/Del counters, the prefix
// counts before, and the PDT's totals.
func checkCounts(t *testing.T, label string, p *PDT) {
	t.Helper()
	if len(p.before) != len(p.chunks) {
		t.Fatalf("%s: %d prefix counts for %d chunks", label, len(p.before), len(p.chunks))
	}
	var net int64
	ins, del := 0, 0
	for i, c := range p.chunks {
		if len(c.entries) == 0 || len(c.entries) > maxChunk {
			t.Fatalf("%s: chunk %d holds %d entries", label, i, len(c.entries))
		}
		if p.before[i] != net {
			t.Fatalf("%s: chunk %d prefix count %d, entries give %d", label, i, p.before[i], net)
		}
		ci, cd := 0, 0
		for _, e := range c.entries {
			switch e.Type {
			case Ins:
				ci++
			case Del:
				cd++
			}
		}
		if ci != c.ins || cd != c.del {
			t.Fatalf("%s: chunk %d counts ins=%d del=%d, entries give %d, %d", label, i, c.ins, c.del, ci, cd)
		}
		net += int64(ci - cd)
		ins, del = ins+ci, del+cd
	}
	if ins != p.ins || del != p.del {
		t.Fatalf("%s: totals ins=%d del=%d, chunks give %d, %d", label, p.ins, p.del, ins, del)
	}
}

// deepEntries copies p's entries down to their rows and Mods lists, so a
// write through a shared row or list shows as a difference.
func deepEntries(p *PDT) []Entry {
	out := p.Entries()
	for i := range out {
		out[i].Row = out[i].Row.Clone()
		out[i].Mods = slices.Clone(out[i].Mods)
	}
	return out
}

// randomWrites applies n random writes to p and the model img: inserts
// (a third of them at rid), deletes and modifications of either column.
func randomWrites(t *testing.T, rng *rand.Rand, p *PDT, img *naiveImage, n int, rid int64, tag string) {
	t.Helper()
	for op := 0; op < n; op++ {
		rows := int64(len(img.rows))
		var err error
		switch k := rng.Intn(6); {
		case k < 2 || rows == 0:
			at := rng.Int63n(rows + 1)
			if k == 0 {
				at = min(rid, rows)
			}
			row := mkRow(int64(-op), fmt.Sprintf("%s%d", tag, op))
			err = p.Insert(at, row)
			img.insert(at, row)
		case k == 2:
			at := rng.Int63n(rows)
			err = p.Delete(at)
			img.delete(at)
		default:
			at, col := rng.Int63n(rows), rng.Intn(2)
			v := vtypes.StrValue(fmt.Sprintf("%s-m%d", tag, op))
			if col == 0 {
				v = vtypes.I64Value(int64(op))
			}
			err = p.Modify(at, col, v)
			img.modify(at, col, v)
		}
		if err != nil {
			t.Fatalf("%s op %d: %v", tag, op, err)
		}
	}
}

// A clone shares its source's chunks: writing the clone — inserts that
// split full shared chunks, deletes of inserted rows, rewrites of an
// existing Mod entry, deletes superseding one — copies each chunk it
// touches and leaves the source exactly as it was, entries, rows, Mods
// lists and counters. Writing the source after a clone leaves the clone
// intact the same way.
func TestCloneIsCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	stable := stableRows(3000)
	built := New(testSchema(), 3000)
	bigImg := &naiveImage{rows: append([]vtypes.Row{}, stable...)}
	randomWrites(t, rng, built, bigImg, 1500, 1500, "big")
	// Decoding packs every chunk full, so the clone's first insert into
	// one splits a shared chunk.
	big, err := Decode(testSchema(), Encode(built))
	if err != nil {
		t.Fatal(err)
	}
	snap := deepEntries(big)
	small := New(testSchema(), big.VisibleRows())
	img := &naiveImage{rows: append([]vtypes.Row{}, bigImg.rows...)}
	randomWrites(t, rng, small, img, 40, 700, "small")
	out, err := Propagate(big, small)
	if err != nil {
		t.Fatal(err)
	}
	randomWrites(t, rng, out, img, 900, 1200, "out")
	checkCounts(t, "clone", out)
	checkImage(t, out, stable, img.rows)
	if got := deepEntries(big); !reflect.DeepEqual(got, snap) {
		t.Fatal("writing the clone changed the source's entries")
	}
	checkCounts(t, "source", big)
	checkImage(t, big, stable, bigImg.rows)

	// The other way round: the source is written after a clone.
	c := big.Clone()
	snap = deepEntries(c)
	randomWrites(t, rng, big, bigImg, 600, 300, "src")
	if got := deepEntries(c); !reflect.DeepEqual(got, snap) {
		t.Fatal("writing the source changed its clone's entries")
	}
	checkCounts(t, "written source", big)
	checkImage(t, big, stable, bigImg.rows)
}

// Readers clone a published PDT concurrently, as concurrent snapshot
// pins fold their read layers from one big PDT: each clone is written
// on its own goroutine while others merge-read the source, which stays
// unchanged. Run under the race detector.
func TestCloneConcurrently(t *testing.T) {
	stable := stableRows(2000)
	big := New(testSchema(), 2000)
	img := &naiveImage{rows: append([]vtypes.Row{}, stable...)}
	randomWrites(t, rand.New(rand.NewSource(7)), big, img, 800, 1000, "big")
	snap := deepEntries(big)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 20 {
				c := big.Clone()
				rid := rng.Int63n(c.VisibleRows())
				if err := c.Insert(rid, mkRow(-1, "c")); err != nil {
					t.Error(err)
					return
				}
				if err := c.Modify(rid, 1, vtypes.StrValue("m")); err != nil {
					t.Error(err)
					return
				}
				rows, err := Materialize(NewMergeScan(stableSource(stable, 64), big, allCols(big), 64), testSchema())
				if err != nil || len(rows) != len(img.rows) {
					t.Errorf("source merge: %d rows, err %v; want %d", len(rows), err, len(img.rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(deepEntries(big), snap) {
		t.Fatal("writing concurrent clones changed the source")
	}
}

// BenchmarkPropagate folds a one-entry tail onto a 10 K-entry big PDT,
// as a snapshot pin's read layer does after one commit. The fold copies
// the big PDT's chunk list and the chunk the tail's entry lands in, not
// its entries: CI gates the B/op at a few chunks.
func BenchmarkPropagate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	big := New(testSchema(), 500_000)
	for big.Len() < 10_000 {
		rid := rng.Int63n(big.VisibleRows())
		var err error
		switch rng.Intn(3) {
		case 0:
			err = big.Insert(rid, mkRow(-rid, "big"))
		case 1:
			err = big.Delete(rid)
		default:
			err = big.Modify(rid, 1, vtypes.StrValue("m"))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	tail := New(testSchema(), big.VisibleRows())
	if err := tail.Insert(rng.Int63n(big.VisibleRows()), mkRow(-1, "tail")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Propagate(big, tail); err != nil {
			b.Fatal(err)
		}
	}
}

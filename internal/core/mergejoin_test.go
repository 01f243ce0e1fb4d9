package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// orderedSource splits keys, which must not decrease, into batches of
// the given sizes (the last size repeats) over the schema (k BIGINT, c),
// where column c of row r is val(r). The batch at position selAt, if
// any, keeps only every other row under a selection vector.
func orderedSource(schema *vtypes.Schema, keys []int64, sizes []int, selAt int, val func(r int) any) *batchSource {
	src := &batchSource{schema: schema}
	for lo, bi := 0, 0; lo < len(keys); bi++ {
		n := min(sizes[min(bi, len(sizes)-1)], len(keys)-lo)
		b := vector.NewBatch(schema, n)
		for i := 0; i < n; i++ {
			b.Vecs[0].I64[i] = keys[lo+i]
			switch v := val(lo + i).(type) {
			case int64:
				b.Vecs[1].I64[i] = v
			case string:
				b.Vecs[1].Str[i] = v
			}
		}
		b.SetDense(n)
		if bi == selAt {
			sel := b.MutableSel(n)
			k := 0
			for i := 0; i < n; i += 2 {
				sel[k] = int32(i)
				k++
			}
			b.SetSel(sel, k)
		}
		src.batches = append(src.batches, b)
		lo += n
	}
	return src
}

// mergeJoinInputs returns an ordered probe side (k BIGINT, id BIGINT) of
// 12 000 rows — keys 4, 8, 12, …, one to seven rows each, in batches of
// 1 to 1 024 rows, one under a selection vector, so that many keys go on
// from one batch into the next, one across three — and three ordered
// build sides (k BIGINT, tag VARCHAR), every fifth key stored twice:
//   - dense: every integer up to past the last probe key but every sixth
//     probe key, over 13 000 rows, the build rows either side of the
//     first chunk boundary (primitives.ChunkRows) one key;
//   - per25: every sixth probe key and some keys between, one build key
//     per ~25 probe rows (Q3, Q5, Q10);
//   - per1000: every 250th probe key and some keys between, one per
//     ~1 000 probe rows (Q18).
func mergeJoinInputs(rng *rand.Rand) (probe *batchSource, builds map[string]*batchSource) {
	var keys, distinct []int64
	for key := int64(4); len(keys) < 12_000; key += 4 {
		distinct = append(distinct, key)
		for range 1 + rng.Intn(7) {
			keys = append(keys, key)
		}
	}
	keys = keys[:12_000]
	pschema := vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "id", Kind: vtypes.KindI64})
	probe = orderedSource(pschema, keys, []int{1024, 1, 3, 1, 1024, 517, 1024}, 5, func(r int) any { return int64(r) })

	twice := func(ks []int64) []int64 {
		var out []int64
		for i, k := range ks {
			out = append(out, k)
			if i%5 == 0 {
				out = append(out, k)
			}
		}
		return out
	}
	var dense, per25, per1000 []int64
	for k := int64(0); k <= keys[len(keys)-1]+8; k++ {
		if k%24 != 4 { // every sixth probe key misses
			dense = append(dense, k)
		}
	}
	dense = twice(dense)
	if at := primitives.ChunkRows; dense[at-1] != dense[at] {
		dense = slices.Insert(dense, at, dense[at-1])
	}
	for i, k := range distinct {
		if i%6 == 0 {
			per25 = append(per25, k)
		}
		if i%6 == 3 {
			per25 = append(per25, k+1) // between probe keys: matches nothing
		}
		if i%250 == 0 {
			per1000 = append(per1000, k)
		}
		if i%250 == 125 {
			per1000 = append(per1000, k+1)
		}
	}
	bschema := vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "tag", Kind: vtypes.KindStr})
	builds = map[string]*batchSource{}
	for name, ks := range map[string][]int64{"dense": dense, "per25": twice(per25), "per1000": twice(per1000)} {
		builds[name] = orderedSource(bschema, ks, []int{1024, 700, 1024}, -1, func(r int) any { return fmt.Sprint(name, r) })
	}
	return probe, builds
}

// TestMergeJoinAgainstHashJoin runs every join type, and semi, anti and
// left outer with BuildLeft (the build side as left input), as a merge
// and on the hash path over the same ordered inputs (mergeJoinInputs),
// at output vector sizes 1, 3 and 1 024, and requires the same rows in
// the same order. The merge's build cursor must end on the first build
// row (semi, anti: key) at least the last probe key: it only moved
// forward, carried from one probe batch to the next.
func TestMergeJoinAgainstHashJoin(t *testing.T) {
	probe, builds := mergeJoinInputs(rand.New(rand.NewSource(12)))
	lastKey := boxedRows(probe.batches[len(probe.batches)-1:])
	for _, tc := range []struct {
		typ       JoinType
		buildLeft bool
	}{
		{JoinInner, false}, {JoinLeftOuter, false}, {JoinLeftSemi, false}, {JoinLeftAnti, false},
		{JoinLeftSemi, true}, {JoinLeftAnti, true}, {JoinLeftOuter, true},
	} {
		for _, shape := range []string{"dense", "per25", "per1000"} {
			left, right := probe, builds[shape]
			if tc.buildLeft {
				left, right = right, left
			}
			var built []int64
			for _, r := range boxedRows(builds[shape].batches) {
				built = append(built, r[0].I64)
			}
			if !tc.buildLeft && (tc.typ == JoinLeftSemi || tc.typ == JoinLeftAnti) {
				built = slices.Compact(built) // one stored row per key
			}
			cursor, _ := slices.BinarySearch(built, lastKey[len(lastKey)-1][0].I64)
			for _, vecSize := range []int{1, 3, 1024} {
				name := fmt.Sprintf("%s/buildLeft=%v/%s/vec%d", []string{"inner", "semi", "anti", "outer"}[tc.typ], tc.buildLeft, shape, vecSize)
				var got [2][]string
				for m, merge := range []bool{false, true} {
					j, err := NewHashJoin(left, right, []Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, tc.typ)
					if err != nil {
						t.Fatal(err)
					}
					if tc.buildLeft {
						j.BuildLeft()
					}
					if merge {
						j.Merge()
					}
					j.vecSize = vecSize
					got[m] = rowStrings(collectBounded(t, j, vecSize))
					if merge && j.cursor != cursor {
						t.Fatalf("%s: build cursor ends at %d, want %d", name, j.cursor, cursor)
					}
				}
				if len(got[0]) == 0 {
					t.Fatalf("%s: the hash path emits no row", name)
				}
				if !slices.Equal(got[1], got[0]) {
					t.Fatalf("%s: the merge emits %d rows, the hash path %d, not the same", name, len(got[1]), len(got[0]))
				}
			}
		}
	}
}

// TestMergeProbeSkipsDeadRows: a merge probe reads only live rows, so a
// probe key below the one before it under a dead row breaks nothing.
func TestMergeProbeSkipsDeadRows(t *testing.T) {
	dead := i64Batch([]int64{2, 10, 20})
	dead.SetSel([]int32{1, 2}, 2)
	build := &batchSource{schema: i64Schema(), batches: []*vector.Batch{i64Batch([]int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})}}
	j, err := NewHashJoin(&batchSource{schema: i64Schema(), batches: []*vector.Batch{i64Batch([]int64{1, 2, 3}), dead}},
		build, []Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
	if err != nil {
		t.Fatal(err)
	}
	j.Merge()
	if rows, err := Collect(j); err != nil || len(rows) != 2 {
		t.Fatalf("a decrease under a dead row: %d rows, error %v; want 2 rows", len(rows), err)
	}
}

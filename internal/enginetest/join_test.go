package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/storage"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

var allJoinTypes = []algebra.JoinType{algebra.JoinInner, algebra.JoinLeftSemi, algebra.JoinLeftAnti, algebra.JoinLeftOuter}

// addTable builds and registers a table from boxed rows.
func addTable(t testing.TB, cat *catalog.Catalog, name string, schema *vtypes.Schema, rows []vtypes.Row) *algebra.ScanNode {
	t.Helper()
	b := storage.NewBuilder(name, schema, 512)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat.Put(tbl)
	cols := make([]int, schema.Len())
	for i := range cols {
		cols[i] = i
	}
	return &algebra.ScanNode{Table: name, Cols: cols, Out: schema.Clone()}
}

func nullableCol(name string, k vtypes.Kind) vtypes.Column {
	return vtypes.Column{Name: name, Kind: k, Nullable: true}
}

// TestDifferentialNullableJoinKeys: a NULL join key never matches, in
// any engine — build rows with one are never found, probe rows with one
// are misses (so anti joins emit them and left-outer joins null-extend
// them) — and NULLs in the build payload survive the join. Keys are
// drawn from {NULL, 0, 1, …} so "NULL hashed as the zero value" shows as
// a spurious match with key 0; the two-column case has rows that are
// NULL in either or both columns.
func TestDifferentialNullableJoinKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	key := func() vtypes.Value {
		if rng.Intn(4) == 0 {
			return vtypes.NullValue(vtypes.KindI64)
		}
		return vtypes.I64Value(rng.Int63n(6))
	}
	strKey := func() vtypes.Value {
		if rng.Intn(4) == 0 {
			return vtypes.NullValue(vtypes.KindStr)
		}
		return vtypes.StrValue([]string{"", "a", "b"}[rng.Intn(3)])
	}
	maybe := func(v vtypes.Value) vtypes.Value {
		if rng.Intn(3) == 0 {
			return vtypes.NullValue(v.Kind)
		}
		return v
	}
	cat := catalog.New()
	var arows, brows []vtypes.Row
	for i := 0; i < 1500; i++ {
		arows = append(arows, vtypes.Row{key(), strKey(), vtypes.I64Value(int64(i))})
	}
	for i := 0; i < 40; i++ {
		brows = append(brows, vtypes.Row{key(), strKey(),
			maybe(vtypes.I64Value(int64(1000 + i))), maybe(vtypes.StrValue(fmt.Sprintf("s%d", i)))})
	}
	a := addTable(t, cat, "a", vtypes.NewSchema(
		nullableCol("k", vtypes.KindI64), nullableCol("ks", vtypes.KindStr),
		vtypes.Column{Name: "x", Kind: vtypes.KindI64}), arows)
	b := addTable(t, cat, "b", vtypes.NewSchema(
		nullableCol("k", vtypes.KindI64), nullableCol("ks", vtypes.KindStr),
		nullableCol("y", vtypes.KindI64), nullableCol("s", vtypes.KindStr)), brows)

	keySets := map[string][2][]algebra.Scalar{
		"int":     {{colRef(0, vtypes.KindI64)}, {colRef(0, vtypes.KindI64)}},
		"str":     {{colRef(1, vtypes.KindStr)}, {colRef(1, vtypes.KindStr)}},
		"int+str": {{colRef(0, vtypes.KindI64), colRef(1, vtypes.KindStr)}, {colRef(0, vtypes.KindI64), colRef(1, vtypes.KindStr)}},
	}
	for name, keys := range keySets {
		for _, typ := range allJoinTypes {
			plan := &algebra.JoinNode{Left: a, Right: b, LeftKeys: keys[0], RightKeys: keys[1], Type: typ}
			vec, tup, mat := runAll(t, cat, plan)
			expectEqual(t, fmt.Sprintf("nullable %s keys, %s", name, typ), vec, tup, mat)
			if len(vec) == 0 {
				t.Fatalf("%s/%s produced no rows", name, typ)
			}
			if typ == algebra.JoinInner {
				continue
			}
			// The build-left hint changes which side is hashed, never the
			// rows: with the small table kept (b ⋈ a, the case the planner
			// sets it for) and with the large one, at scan vectors small
			// enough that the kept rows stream out over many batches.
			for _, sides := range [][2]*algebra.ScanNode{{a, b}, {b, a}} {
				hinted := &algebra.JoinNode{Left: sides[0], Right: sides[1], LeftKeys: keys[0], RightKeys: keys[1], Type: typ, BuildLeft: true}
				plain := *hinted
				plain.BuildLeft = false
				want, err := tupleengine.Run(&plain, cat)
				if err != nil {
					t.Fatal(err)
				}
				for _, vecSize := range []int{0, 7} {
					op, err := xcompile.Compile(hinted, cat, xcompile.Options{VecSize: vecSize})
					if err != nil {
						t.Fatal(err)
					}
					got, err := core.Collect(op)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("build=left %s ⋈ %s on %s, %s, vectors of %d", sides[0].Table, sides[1].Table, name, typ, vecSize)
					expectEqual(t, label, render(got), render(want), render(want))
				}
			}
		}
	}

	// The engines agreeing is not enough (they agreed on the wrong answer
	// before): pin the semantics on the int key against a nested loop.
	want := map[algebra.JoinType]int{}
	for _, ar := range arows {
		matches := 0
		for _, br := range brows {
			if !ar[0].Null && !br[0].Null && ar[0].I64 == br[0].I64 {
				matches++
			}
		}
		want[algebra.JoinInner] += matches
		want[algebra.JoinLeftOuter] += max(matches, 1)
		if matches > 0 {
			want[algebra.JoinLeftSemi]++
		} else {
			want[algebra.JoinLeftAnti]++
		}
	}
	for _, typ := range allJoinTypes {
		plan := &algebra.JoinNode{Left: a, Right: b, Type: typ,
			LeftKeys: keySets["int"][0], RightKeys: keySets["int"][1]}
		if got := len(collectVectorized(t, cat, plan)); got != want[typ] {
			t.Fatalf("%s join on a nullable key: %d rows, nested loop says %d", typ, got, want[typ])
		}
	}
}

// TestJoinFanOutBatchesBounded: however many build rows a probe row
// matches, no batch the join returns exceeds the vector size — emission
// resumes the match list, and a long duplicate chain, on the next call —
// and the rows are the tuple engine's. Fan-out 10 takes the chunked
// gather path; fan-out 5 000 cuts single chains across batches. Small
// scan vectors exercise the selection-vector and partial-batch paths.
func TestJoinFanOutBatchesBounded(t *testing.T) {
	for _, fan := range []int{10, 5000} {
		cat := catalog.New()
		probeRows := 2000
		if fan == 5000 {
			probeRows = 40
		}
		var prows, brows []vtypes.Row
		for i := 0; i < probeRows; i++ {
			prows = append(prows, vtypes.Row{vtypes.I64Value(int64(i % 7)), vtypes.I64Value(int64(i))})
		}
		for k := 0; k < 5; k++ { // keys 5 and 6 never match
			for d := 0; d < fan; d++ {
				brows = append(brows, vtypes.Row{vtypes.I64Value(int64(k)), vtypes.StrValue(fmt.Sprintf("%d/%d", k, d))})
			}
		}
		probe := addTable(t, cat, "p", vtypes.NewSchema(
			vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "id", Kind: vtypes.KindI64}), prows)
		build := addTable(t, cat, "b", vtypes.NewSchema(
			vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "tag", Kind: vtypes.KindStr}), brows)
		for _, typ := range []algebra.JoinType{algebra.JoinInner, algebra.JoinLeftOuter} {
			var plan algebra.Node = &algebra.JoinNode{
				Left: &algebra.SelectNode{Input: probe, // a selection vector under the join
					Pred: &algebra.Cmp{Op: algebra.CmpNe, L: colRef(1, vtypes.KindI64), R: lit(vtypes.I64Value(3))}},
				Right:    build,
				LeftKeys: []algebra.Scalar{colRef(0, vtypes.KindI64)}, RightKeys: []algebra.Scalar{colRef(0, vtypes.KindI64)},
				Type: typ,
			}
			want, err := tupleengine.Run(plan, cat)
			if err != nil {
				t.Fatal(err)
			}
			for _, vecSize := range []int{0, 3, 100} {
				op, err := xcompile.Compile(plan, cat, xcompile.Options{VecSize: vecSize})
				if err != nil {
					t.Fatal(err)
				}
				if err := op.Open(); err != nil {
					t.Fatal(err)
				}
				var got []vtypes.Row
				for {
					b, err := op.Next()
					if err != nil {
						t.Fatal(err)
					}
					if b == nil {
						break
					}
					if b.N > vector.DefaultSize {
						t.Fatalf("fan-out %d, %s: batch of %d rows exceeds the vector size %d", fan, typ, b.N, vector.DefaultSize)
					}
					for i := 0; i < b.N; i++ {
						got = append(got, b.Row(i))
					}
				}
				if err := op.Close(); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("fan-out %d, %s, scan vectors of %d", fan, typ, vecSize)
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, tuple engine %d", label, len(got), len(want))
				}
				// Both engines emit probe order × build order.
				for i := range want {
					for c := range want[i] {
						if !want[i][c].Equal(got[i][c]) {
							t.Fatalf("%s: row %d is %v, tuple engine %v", label, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

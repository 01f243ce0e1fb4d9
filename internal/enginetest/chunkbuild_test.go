package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/matengine"
	"vectorwise/internal/pdt"
	"vectorwise/internal/primitives"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// chunkBuildCatalog holds p(k BIGINT NULL, id BIGINT), 1 500 probe rows
// whose keys are NULL, absent or one of b's, 0 among them, and b(k BIGINT
// NULL, id BIGINT, tag VARCHAR, v DOUBLE) of `rows` stored rows: row i has
// key i/3 and every eleventh a NULL key, so each key has up to three rows
// and a NULL row's safe value 0 is a key p probes. A PDT on b makes live
// rows of every kind: it inserts a fourth row of key 5 before its first
// and one of the last key at the end, moves a row to key 5, makes a key
// NULL, makes a NULL key 7 and deletes a row, so that a key's build order
// mixes stored and inserted rows.
func chunkBuildCatalog(t *testing.T, rows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	var prows, brows []vtypes.Row
	for i := range 1500 {
		k := vtypes.I64Value(int64(i * 7 % (rows/3 + 40)))
		if i%9 == 0 {
			k = vtypes.NullValue(vtypes.KindI64)
		}
		prows = append(prows, vtypes.Row{k, vtypes.I64Value(int64(i))})
	}
	brow := func(i int, k vtypes.Value) vtypes.Row {
		return vtypes.Row{k, vtypes.I64Value(int64(i)), vtypes.StrValue(fmt.Sprint("t", i)), vtypes.F64Value(float64(i*37%101) / 4)}
	}
	for i := range rows {
		k := vtypes.I64Value(int64(i / 3))
		if i%11 == 0 {
			k = vtypes.NullValue(vtypes.KindI64)
		}
		brows = append(brows, brow(i, k))
	}
	addTable(t, cat, "p", vtypes.NewSchema(nullableCol("k", vtypes.KindI64), vtypes.Column{Name: "id", Kind: vtypes.KindI64}), prows)
	schema := vtypes.NewSchema(nullableCol("k", vtypes.KindI64), vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "tag", Kind: vtypes.KindStr}, vtypes.Column{Name: "v", Kind: vtypes.KindF64})
	addTable(t, cat, "b", schema, brows)
	p := pdt.New(schema, int64(rows))
	for _, err := range []error{
		p.Insert(15, brow(90001, vtypes.I64Value(5))),
		p.Append(brow(90002, vtypes.I64Value(int64((rows-1)/3)))),
		p.Modify(40, 0, vtypes.I64Value(5)),
		p.Modify(25, 0, vtypes.NullValue(vtypes.KindI64)),
		p.Modify(34, 0, vtypes.I64Value(7)), // row 33 of b is a NULL key; 34 after the insert
		p.Delete(int64(rows / 2)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.SetLayers("b", []*pdt.PDT{p}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestChunkBoundaryBuildDifferential runs joins whose build side is b —
// one row short of a chunk, a chunk, a row past it and a row past three —
// and TopN cuts of b around the chunk size, on the vectorized engine at
// scan vector sizes 1, 3 and 1 024 and on the tuple and materialized
// engines. A payload join stores b and hashes it afterwards, a chunk at a
// time, into a table of its final size, so the cases are those that
// resolve differently: duplicate keys, whose rows every engine emits in
// probe order and build order within a key (compared in order), LEFT JOIN,
// BuildLeft joins that store b's NULL keys and must never find them
// (compared as sorted rows, since a BuildLeft join emits its kept rows
// last), and PDT rows among the stored ones.
func TestChunkBoundaryBuildDifferential(t *testing.T) {
	const chunk = primitives.ChunkRows
	keys := []algebra.Scalar{colRef(0, vtypes.KindI64)}
	scan := func(name string, cols int) *algebra.ScanNode {
		s := &algebra.ScanNode{Table: name}
		for c := range cols {
			s.Cols = append(s.Cols, c)
		}
		return s
	}
	for _, rows := range []int{chunk - 1, chunk, chunk + 1, 3*chunk + 1} {
		cat := chunkBuildCatalog(t, rows)
		p, b := scan("p", 2), scan("b", 4)
		for _, s := range []*algebra.ScanNode{p, b} {
			tbl, _, err := cat.Resolve(s.Table)
			if err != nil {
				t.Fatal(err)
			}
			s.Out = tbl.Schema().Clone()
		}
		type plan struct {
			name    string
			node    algebra.Node
			ordered bool
		}
		plans := []plan{
			{"inner", &algebra.JoinNode{Left: p, Right: b, LeftKeys: keys, RightKeys: keys, Type: algebra.JoinInner}, true},
			{"left outer", &algebra.JoinNode{Left: p, Right: b, LeftKeys: keys, RightKeys: keys, Type: algebra.JoinLeftOuter}, true},
		}
		for _, typ := range []algebra.JoinType{algebra.JoinLeftSemi, algebra.JoinLeftAnti, algebra.JoinLeftOuter} {
			plans = append(plans, plan{fmt.Sprintf("build=left %s", typ),
				&algebra.JoinNode{Left: b, Right: p, LeftKeys: keys, RightKeys: keys, Type: typ, BuildLeft: true}, false})
		}
		for _, n := range []int64{chunk - 1, chunk + 1} {
			plans = append(plans, plan{fmt.Sprintf("top %d", n), &algebra.LimitNode{N: n, Input: &algebra.SortNode{Input: b,
				Keys: []algebra.SortKey{{Expr: colRef(3, vtypes.KindF64), Desc: true}, {Expr: colRef(1, vtypes.KindI64)}}}}, true})
		}
		for _, pl := range plans {
			// The reference engines run the plan without the hint, which
			// changes which side is hashed and never the rows.
			ref := pl.node
			if j, ok := ref.(*algebra.JoinNode); ok && j.BuildLeft {
				plain := *j
				plain.BuildLeft = false
				ref = &plain
			}
			show := func(rows []vtypes.Row) string {
				if !pl.ordered {
					return strings.Join(render(rows), "\n")
				}
				out := make([]string, len(rows))
				for i, r := range rows {
					out[i] = fmt.Sprint(r)
				}
				return strings.Join(out, "\n")
			}
			trows, err := tupleengine.Run(ref, cat)
			if err != nil {
				t.Fatal(err)
			}
			mrows, err := matengine.Run(ref, cat)
			if err != nil {
				t.Fatal(err)
			}
			want := show(trows)
			if len(trows) == 0 {
				t.Fatalf("b of %d rows, %s: no rows", rows, pl.name)
			}
			if got := show(mrows); got != want {
				t.Fatalf("b of %d rows, %s: materialized engine differs from the tuple engine", rows, pl.name)
			}
			for _, vecSize := range []int{1, 3, 1024} {
				op, err := xcompile.Compile(pl.node, cat, xcompile.Options{VecSize: vecSize})
				if err != nil {
					t.Fatal(err)
				}
				vrows, err := core.Collect(op)
				if err != nil {
					t.Fatal(err)
				}
				if got := show(vrows); got != want {
					t.Fatalf("b of %d rows, %s, vectors of %d: %d rows differ from the tuple engine's %d", rows, pl.name, vecSize, len(vrows), len(trows))
				}
			}
		}
	}
}

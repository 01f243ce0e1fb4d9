package tupleengine

import (
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// TestMinMaxOverNoValueIsNull: MIN and MAX of a group whose arguments are
// all NULL, and of the one row an ungrouped aggregate returns over no
// rows, are NULL of the argument's kind, not the zero Value; COUNT beside
// them is 0 and a group with a value keeps its own.
func TestMinMaxOverNoValueIsNull(t *testing.T) {
	schema := vtypes.NewSchema(vtypes.Column{Name: "g", Kind: vtypes.KindI64},
		vtypes.Column{Name: "x", Kind: vtypes.KindF64, Nullable: true},
		vtypes.Column{Name: "s", Kind: vtypes.KindStr, Nullable: true})
	b := storage.NewBuilder("t", schema, 100)
	for _, r := range []vtypes.Row{
		{vtypes.I64Value(1), vtypes.NullValue(vtypes.KindF64), vtypes.NullValue(vtypes.KindStr)},
		{vtypes.I64Value(1), vtypes.NullValue(vtypes.KindF64), vtypes.NullValue(vtypes.KindStr)},
		{vtypes.I64Value(2), vtypes.F64Value(2.5), vtypes.StrValue("b")},
		{vtypes.I64Value(2), vtypes.F64Value(-1), vtypes.StrValue("a")},
	} {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Put(tbl)
	col := func(i int, k vtypes.Kind) algebra.Scalar { return &algebra.ColRef{Idx: i, K: k} }
	x, s := col(1, vtypes.KindF64), col(2, vtypes.KindStr)
	aggs := []algebra.AggExpr{{Fn: algebra.AggMin, Arg: x}, {Fn: algebra.AggMax, Arg: x},
		{Fn: algebra.AggMin, Arg: s}, {Fn: algebra.AggMax, Arg: s}, {Fn: algebra.AggCount, Arg: x}}
	scan := &algebra.ScanNode{Table: "t", Cols: []int{0, 1, 2}, Out: schema.Clone()}
	null := []vtypes.Value{vtypes.NullValue(vtypes.KindF64), vtypes.NullValue(vtypes.KindF64),
		vtypes.NullValue(vtypes.KindStr), vtypes.NullValue(vtypes.KindStr), vtypes.I64Value(0)}
	for _, tc := range []struct {
		name string
		plan algebra.Node
		want [][]vtypes.Value
	}{
		{"grouped", &algebra.AggNode{Input: scan, GroupBy: []algebra.Scalar{col(0, vtypes.KindI64)}, Aggs: aggs,
			Names: []string{"g", "minx", "maxx", "mins", "maxs", "n"}}, [][]vtypes.Value{
			append([]vtypes.Value{vtypes.I64Value(1)}, null...),
			{vtypes.I64Value(2), vtypes.F64Value(-1), vtypes.F64Value(2.5), vtypes.StrValue("a"), vtypes.StrValue("b"), vtypes.I64Value(2)},
		}},
		{"ungrouped over no rows", &algebra.AggNode{Aggs: aggs, Names: []string{"minx", "maxx", "mins", "maxs", "n"},
			Input: &algebra.SelectNode{Input: scan, Pred: &algebra.Cmp{Op: algebra.CmpGt, L: col(0, vtypes.KindI64),
				R: &algebra.Lit{Val: vtypes.I64Value(9)}}}}, [][]vtypes.Value{null}},
	} {
		rows, err := Run(tc.plan, cat)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(tc.want) {
			t.Fatalf("%s: %d rows, want %d", tc.name, len(rows), len(tc.want))
		}
		for i, want := range tc.want {
			for c, w := range want {
				if got := rows[i][c]; got.Kind != w.Kind || got.Null != w.Null || !w.Null && !got.Equal(w) {
					t.Fatalf("%s: row %d column %d is %v (kind %v, null %v), want %v (kind %v)", tc.name, i, c, got, got.Kind, got.Null, w, w.Kind)
				}
			}
		}
	}
}

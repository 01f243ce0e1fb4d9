package algebra

import (
	"testing"

	"vectorwise/internal/vtypes"
)

// TestKnown: the NULL rule on each shape it rewrites, over
// t(#0 BIGINT, #1 BIGINT NULL, #2 VARCHAR NULL, #3 BOOLEAN NULL).
func TestKnown(t *testing.T) {
	in := vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindI64, Nullable: true},
		vtypes.Column{Name: "c", Kind: vtypes.KindStr, Nullable: true},
		vtypes.Column{Name: "b", Kind: vtypes.KindBool, Nullable: true})
	k, v, s, b := c(0, vtypes.KindI64), c(1, vtypes.KindI64), c(2, vtypes.KindStr), c(3, vtypes.KindBool)
	i64 := func(x int64) Scalar { return &Lit{Val: vtypes.I64Value(x)} }
	null := &Lit{Val: vtypes.NullValue(vtypes.KindI64)}
	cmp := func(op CmpOp, l, r Scalar) *Cmp { return &Cmp{Op: op, L: l, R: r} }
	and := func(ps ...Scalar) *And { return &And{Preds: ps} }
	or := func(ps ...Scalar) *Or { return &Or{Preds: ps} }
	plus, _ := NewArith(OpAdd, v, k)
	like := &Like{In: s, Pattern: "a%"}
	choose, _ := NewCase(cmp(CmpGt, k, i64(1)), v, k)
	for _, tc := range []struct {
		name string
		p    Scalar
		want string
	}{
		{"an atom", cmp(CmpEq, v, i64(0)), "((#1 = 0) and (#1 is not null))"},
		{"a computed operand", cmp(CmpGt, plus, i64(0)), "(((#1 + #0) > 0) and (#1 is not null))"},
		{"a conjunction: guards after the conjuncts, once a column",
			and(cmp(CmpGe, v, i64(0)), like, cmp(CmpLe, v, i64(3)), cmp(CmpGt, k, i64(2))),
			`((#1 >= 0) and (#2 like "a%") and (#1 <= 3) and (#0 > 2) and (#1 is not null) and (#2 is not null))`},
		{"a NULL literal", cmp(CmpEq, k, null), "false"},
		{"a NULL literal in a conjunction keeps its place", and(cmp(CmpEq, k, null), cmp(CmpGt, k, i64(1))), "(false and (#0 > 1))"},
		{"an IN list's NULL member", &In{In: v, List: []vtypes.Value{vtypes.I64Value(1), vtypes.NullValue(vtypes.KindI64)}},
			"((#1 in [1]) and (#1 is not null))"},
		{"an IN of NULLs only", &In{In: k, List: []vtypes.Value{vtypes.NullValue(vtypes.KindI64)}}, "false"},
		{"a disjunction", or(cmp(CmpEq, v, i64(0)), cmp(CmpEq, k, i64(1))), "(((#1 = 0) and (#1 is not null)) or (#0 = 1))"},
		{"a boolean column", b, "(#3 and (#3 is not null))"},
		{"a BOOLEAN NULL", &Lit{Val: vtypes.NullValue(vtypes.KindBool)}, "false"},
		{"a CASE under an atom", cmp(CmpGt, choose, i64(2)),
			"(((case when (#0 > 1) then #1 else #0 end) > 2) and ((#0 <= 1) or (#1 is not null)))"},
		{"IS NULL of a computed value", &IsNull{In: plus}, "(#1 is null)"},
		{"IS NULL of a comparison of two predicates", &IsNull{In: cmp(CmpEq, cmp(CmpGt, v, i64(0)), like)}, "((#1 is null) or (#2 is null))"},
		{"IS NOT NULL of it", &IsNull{In: cmp(CmpEq, cmp(CmpGt, v, i64(0)), like), Negate: true}, "((#1 is not null) and (#2 is not null))"},
		{"IS NULL of what is never NULL", &IsNull{In: cmp(CmpGt, k, i64(1))}, "false"},
		{"IS NOT NULL of what is never NULL", &IsNull{In: cmp(CmpGt, k, i64(1)), Negate: true}, "true"},
		{"IS NULL of a conjunction: neither it nor its negation is TRUE",
			&IsNull{In: and(cmp(CmpGt, v, i64(0)), cmp(CmpGt, k, i64(10)))},
			"(((#1 <= 0) or (#0 <= 10) or (#1 is null)) and (((#1 > 0) or (#1 is null)) and (#0 > 10)))"},
	} {
		if got := Known(tc.p, in).String(); got != tc.want {
			t.Errorf("%s: Known(%s) = %s, want %s", tc.name, tc.p, got, tc.want)
		}
	}
	// What cannot be NULL comes back as it is.
	for _, p := range []Scalar{cmp(CmpEq, k, i64(5)), &IsNull{In: v}, &IsNull{In: k, Negate: true},
		and(cmp(CmpGt, k, i64(1)), &IsNull{In: s})} {
		if got := Known(p, in); got != p {
			t.Errorf("Known(%s) = %s, want the predicate itself", p, got)
		}
	}
}

// TestSchemaNullability: a Project's or an Aggregate's output that
// references a nullable column is nullable, through a left join's right
// side and an Xchg union; a computed one and an aggregate are not.
func TestSchemaNullability(t *testing.T) {
	scan := func(nullable bool) *ScanNode {
		return &ScanNode{Table: "t", Cols: []int{0, 1}, Out: vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64},
			vtypes.Column{Name: "v", Kind: vtypes.KindI64, Nullable: nullable})}
	}
	join := &JoinNode{Left: scan(false), Right: scan(false), LeftKeys: []Scalar{c(0, vtypes.KindI64)},
		RightKeys: []Scalar{c(0, vtypes.KindI64)}, Type: JoinLeftOuter}
	plus, _ := NewArith(OpAdd, c(1, vtypes.KindI64), c(0, vtypes.KindI64))
	proj := &ProjectNode{Input: &SelectNode{Input: join, Pred: &Lit{Val: vtypes.BoolValue(true)}},
		Exprs: []Scalar{c(1, vtypes.KindI64), c(3, vtypes.KindI64), plus}, Names: []string{"a", "b", "c"}}
	agg := &AggNode{Input: proj, GroupBy: []Scalar{c(1, vtypes.KindI64), c(0, vtypes.KindI64)},
		Aggs: []AggExpr{{Fn: AggMin, Arg: c(1, vtypes.KindI64)}}, Names: []string{"b", "a", "m"}}
	for _, tc := range []struct {
		n    Node
		want []bool
	}{
		{proj, []bool{false, true, false}},
		{agg, []bool{true, false, false}},
		{&ProjectNode{Input: scan(true), Exprs: []Scalar{c(1, vtypes.KindI64), c(0, vtypes.KindI64)}, Names: []string{"v", "k"}}, []bool{true, false}},
		{&ProjectNode{Input: &UnionAllNode{Inputs: []Node{agg, agg}}, Exprs: []Scalar{c(0, vtypes.KindI64), c(2, vtypes.KindI64)}, Names: []string{"b", "m"}},
			[]bool{true, false}},
	} {
		sch := tc.n.Schema()
		for i, w := range tc.want {
			if sch.Cols[i].Nullable != w {
				t.Errorf("%s column %d: nullable %v, want %v", sch, i, sch.Cols[i].Nullable, w)
			}
		}
	}
}

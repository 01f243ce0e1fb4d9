package algebra

import (
	"math"
	"strings"
	"testing"

	"vectorwise/internal/vtypes"
)

func c(i int, k vtypes.Kind) Scalar { return &ColRef{Idx: i, K: k} }

func TestArithKindInference(t *testing.T) {
	// int + int = int
	a, err := NewArith(OpAdd, c(0, vtypes.KindI64), c(1, vtypes.KindI64))
	if err != nil || a.Kind() != vtypes.KindI64 {
		t.Fatalf("int+int: %v %v", a, err)
	}
	// int * float is refused: the planner casts the int (sql's unify)
	if _, err := NewArith(OpMul, c(0, vtypes.KindI64), c(1, vtypes.KindF64)); err == nil {
		t.Fatal("int*float must fail")
	}
	a, err = NewArith(OpMul, &Cast{In: c(0, vtypes.KindI64), To: vtypes.KindF64}, c(1, vtypes.KindF64))
	if err != nil || a.Kind() != vtypes.KindF64 {
		t.Fatalf("cast(int)*float: %v %v", a, err)
	}
	// date - date = int (day difference)
	a, err = NewArith(OpSub, c(0, vtypes.KindDate), c(1, vtypes.KindDate))
	if err != nil || a.Kind() != vtypes.KindI64 {
		t.Fatalf("date-date: %v %v", a, err)
	}
	// date + int = date
	a, err = NewArith(OpAdd, c(0, vtypes.KindDate), c(1, vtypes.KindI64))
	if err != nil || a.Kind() != vtypes.KindDate {
		t.Fatalf("date+int: %v %v", a, err)
	}
	// string arithmetic is ill-typed
	if _, err := NewArith(OpAdd, c(0, vtypes.KindStr), c(1, vtypes.KindI64)); err == nil {
		t.Fatal("string arithmetic must fail")
	}
}

func TestCaseKindInference(t *testing.T) {
	cond := &Cmp{Op: CmpEq, L: c(0, vtypes.KindI64), R: &Lit{Val: vtypes.I64Value(1)}}
	cs, err := NewCase(cond, c(1, vtypes.KindF64), c(2, vtypes.KindF64))
	if err != nil || cs.Kind() != vtypes.KindF64 {
		t.Fatalf("float case: %v %v", cs, err)
	}
	if _, err := NewCase(cond, c(1, vtypes.KindI64), c(2, vtypes.KindF64)); err == nil {
		t.Fatal("mixed arms must fail: the planner casts the int arm")
	}
	if _, err := NewCase(c(0, vtypes.KindI64), c(1, vtypes.KindI64), c(2, vtypes.KindI64)); err == nil {
		t.Fatal("non-bool condition must fail")
	}
	if _, err := NewCase(cond, c(1, vtypes.KindStr), c(2, vtypes.KindI64)); err == nil {
		t.Fatal("incompatible arms must fail")
	}
}

func TestNodeSchemas(t *testing.T) {
	scan := &ScanNode{Table: "t", Cols: []int{0, 1},
		Out: vtypes.NewSchema(
			vtypes.Column{Name: "a", Kind: vtypes.KindI64},
			vtypes.Column{Name: "b", Kind: vtypes.KindStr})}
	sel := &SelectNode{Input: scan, Pred: &Cmp{Op: CmpEq, L: c(0, vtypes.KindI64), R: &Lit{Val: vtypes.I64Value(1)}}}
	if sel.Schema().Len() != 2 {
		t.Fatal("select schema passes through")
	}
	proj := &ProjectNode{Input: sel, Exprs: []Scalar{c(1, vtypes.KindStr)}, Names: []string{"x"}}
	if proj.Schema().Col(0).Name != "x" || proj.Schema().Col(0).Kind != vtypes.KindStr {
		t.Fatal("project schema wrong")
	}
	agg := &AggNode{Input: scan, GroupBy: []Scalar{c(1, vtypes.KindStr)},
		Aggs:  []AggExpr{{Fn: AggSum, Arg: c(0, vtypes.KindI64)}, {Fn: AggMax, Arg: c(1, vtypes.KindStr)}, {Fn: AggCountStar}},
		Names: []string{"g", "s", "m", "n"}}
	sch := agg.Schema()
	if sch.Col(1).Kind != vtypes.KindI64 || sch.Col(2).Kind != vtypes.KindStr || sch.Col(3).Kind != vtypes.KindI64 {
		t.Fatalf("agg schema kinds: %v", sch)
	}
	join := &JoinNode{Left: scan, Right: scan,
		LeftKeys: []Scalar{c(0, vtypes.KindI64)}, RightKeys: []Scalar{c(0, vtypes.KindI64)},
		Type: JoinLeftOuter}
	js := join.Schema()
	if js.Len() != 4 || !js.Col(2).Nullable {
		t.Fatalf("outer join schema: %v", js)
	}
	semi := &JoinNode{Left: scan, Right: scan,
		LeftKeys: []Scalar{c(0, vtypes.KindI64)}, RightKeys: []Scalar{c(0, vtypes.KindI64)},
		Type: JoinLeftSemi}
	if semi.Schema().Len() != 2 {
		t.Fatal("semi join must project probe side only")
	}
}

func TestExplainRendersTree(t *testing.T) {
	scan := &ScanNode{Table: "t", Cols: []int{0},
		Out: vtypes.NewSchema(vtypes.Column{Name: "a", Kind: vtypes.KindI64})}
	scan2 := &ScanNode{Table: "t", Cols: []int{0}, PartLo: 1, PartHi: 3,
		Out: scan.Out}
	plan := &LimitNode{N: 5, Input: &SortNode{
		Keys:  []SortKey{{Expr: c(0, vtypes.KindI64)}},
		Input: &UnionAllNode{Inputs: []Node{scan, scan2}},
	}}
	out := Explain(plan)
	for _, want := range []string{"Limit 5", "Sort keys=1", "XchgUnion width=2", "Scan t", "part=[1,3)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
	// Scalars render readably.
	s := (&And{Preds: []Scalar{
		&Cmp{Op: CmpLe, L: c(0, vtypes.KindI64), R: &Lit{Val: vtypes.I64Value(9)}},
		&Like{In: c(1, vtypes.KindStr), Pattern: "a%"},
		&And{Preds: []Scalar{
			&Cmp{Op: CmpGe, L: c(0, vtypes.KindI64), R: &Lit{Val: vtypes.I64Value(1)}},
			&Cmp{Op: CmpLe, L: c(0, vtypes.KindI64), R: &Lit{Val: vtypes.I64Value(2)}}}},
		&In{In: c(0, vtypes.KindI64), List: []vtypes.Value{vtypes.I64Value(3)}},
		&IsNull{In: c(0, vtypes.KindI64)},
	}}).String()
	for _, want := range []string{"#0 <= 9", "like", "((#0 >= 1) and (#0 <= 2))", "in [3]", "is null"} {
		if !strings.Contains(s, want) {
			t.Fatalf("scalar render missing %q: %s", want, s)
		}
	}
}

func pruneScan(table string, n int) *ScanNode {
	s := &ScanNode{Table: table, Out: &vtypes.Schema{}}
	for i := 0; i < n; i++ {
		s.Cols = append(s.Cols, i)
		s.Out.Cols = append(s.Out.Cols, vtypes.Column{Name: table + string(rune('a'+i)), Kind: vtypes.KindI64})
	}
	return s
}

func TestPruneColumns(t *testing.T) {
	eq := func(l, r Scalar) Scalar { return &Cmp{Op: CmpEq, L: l, R: r} }
	one := &Lit{Val: vtypes.I64Value(1)}
	ik := vtypes.KindI64

	// (t ⋈ u on t.a = u.a) ⋈ v on u.c = v.a, projecting t.b and v.b: the
	// lower join's keys are dead above it, so the upper join's probe side
	// gets one pure-ColRef projection; scans narrow in place.
	lower := &JoinNode{Left: pruneScan("t", 4), Right: pruneScan("u", 4), Type: JoinInner,
		LeftKeys: []Scalar{c(0, ik)}, RightKeys: []Scalar{c(0, ik)}}
	upper := &JoinNode{Left: lower, Right: pruneScan("v", 3), Type: JoinInner,
		LeftKeys: []Scalar{c(6, ik)}, RightKeys: []Scalar{c(0, ik)}}
	plan := PruneColumns(&ProjectNode{Input: upper, Exprs: []Scalar{c(1, ik), c(9, ik)}, Names: []string{"tb", "vb"}})
	want := `Project [tb vb]
  HashJoin inner
    Project [tb uc]
      HashJoin inner
        Scan t cols=[0 1]
        Scan u cols=[0 2]
    Scan v cols=[0 1]
`
	if got := Explain(plan); got != want {
		t.Fatalf("join chain pruned to\n%s\nwant\n%s", got, want)
	}
	if got := plan.(*ProjectNode).Exprs[1].String(); got != "#3" {
		t.Fatalf("v.b renumbered to %s, want #3", got)
	}

	// A semi join reads nothing of its right side but the keys; a scan's
	// filter (the Select over it) keeps its column in the scan though
	// nothing above reads it, and a projection drops that column before
	// the join stores the rows.
	fscan := &SelectNode{Input: pruneScan("w", 3), Pred: eq(c(2, ik), one)}
	semi := &JoinNode{Left: pruneScan("t", 3), Right: fscan, Type: JoinLeftSemi,
		LeftKeys: []Scalar{c(2, ik)}, RightKeys: []Scalar{c(1, ik)}}
	plan = PruneColumns(&ProjectNode{Input: semi, Exprs: []Scalar{c(0, ik)}, Names: []string{"ta"}})
	want = `Project [ta]
  HashJoin semi
    Scan t cols=[0 2]
    Project [wb]
      Select (#1 = 1)
        Scan w cols=[1 2]
`
	if got := Explain(plan); got != want {
		t.Fatalf("semi join pruned to\n%s\nwant\n%s", got, want)
	}

	// Union inputs come out with one shape even when only one of them
	// carries a filter-only column; a root's own schema never changes;
	// a RowID scan (a DML plan) is left alone.
	union := &UnionAllNode{Inputs: []Node{fscan, pruneScan("x", 3)}}
	plan = PruneColumns(&ProjectNode{Input: union, Exprs: []Scalar{c(0, ik)}, Names: []string{"a"}})
	want = `Project [a]
  XchgUnion width=2
    Project [wa]
      Select (#1 = 1)
        Scan w cols=[0 2]
    Scan x cols=[0]
`
	if got := Explain(plan); got != want {
		t.Fatalf("union pruned to\n%s\nwant\n%s", got, want)
	}
	if got := PruneColumns(union); Explain(got) != Explain(union) {
		t.Fatalf("a root lost columns:\n%s", Explain(got))
	}
	rid := pruneScan("t", 3)
	rid.RowID = true
	rid.Out.Cols = append(rid.Out.Cols, vtypes.RowIDColumn)
	plan = PruneColumns(&ProjectNode{Input: rid, Exprs: []Scalar{c(3, ik)}, Names: []string{"rid"}})
	if got := plan.(*ProjectNode).Input.(*ScanNode); len(got.Cols) != 3 {
		t.Fatalf("RowID scan narrowed to %v", got.Cols)
	}
}

// foreign is a Scalar kind Equal does not know.
type foreign struct{ ColRef }

// TestEqual: two scalars are equal only when they compute the same values
// — equal trees of equal kinds, literals equal to the bit, parameters of
// one slot.
func TestEqual(t *testing.T) {
	colI := func(i int) Scalar { return c(i, vtypes.KindI64) }
	colF := func(i int) Scalar { return c(i, vtypes.KindF64) }
	lit := func(v vtypes.Value) Scalar { return &Lit{Val: v} }
	arith := func(op ArithOp, l, r Scalar) Scalar {
		a, err := NewArith(op, l, r)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	discPrice := func() Scalar {
		return arith(OpMul, colF(1), arith(OpSub, lit(vtypes.F64Value(1)), colF(2)))
	}
	cmp := func(op CmpOp, i int) Scalar { return &Cmp{Op: op, L: colI(i), R: lit(vtypes.I64Value(5))} }
	between := func(hi int64) Scalar {
		return &And{Preds: []Scalar{&Cmp{Op: CmpGe, L: colI(0), R: lit(vtypes.I64Value(1))}, &Cmp{Op: CmpLe, L: colI(0), R: lit(vtypes.I64Value(hi))}}}
	}
	in := func(vs ...int64) Scalar {
		list := make([]vtypes.Value, len(vs))
		for i, v := range vs {
			list[i] = vtypes.I64Value(v)
		}
		return &In{In: colI(0), List: list}
	}
	kase := func(then int) Scalar {
		return &Case{Cond: cmp(CmpLt, 0), Then: colF(then), Else: colF(2), K: vtypes.KindF64}
	}
	param := func(i int) Scalar { return &Param{Idx: i, K: vtypes.KindI64} }
	for _, tc := range []struct {
		name string
		a, b Scalar
		same bool
	}{
		{"one column", colF(0), colF(0), true},
		{"two columns", colF(0), colF(1), false},
		{"equal trees", discPrice(), discPrice(), true},
		{"operators differ", arith(OpAdd, colF(0), colF(1)), arith(OpSub, colF(0), colF(1)), false},
		{"literal kinds differ", lit(vtypes.I64Value(1)), lit(vtypes.F64Value(1)), false},
		{"zero and negative zero", lit(vtypes.F64Value(0)), lit(vtypes.F64Value(math.Copysign(0, -1))), false},
		{"casts of one column", &Cast{In: colI(0), To: vtypes.KindF64}, &Cast{In: colI(0), To: vtypes.KindF64}, true},
		{"cast beside its input", &Cast{In: colI(0), To: vtypes.KindF64}, colI(0), false},
		{"nodes it does not know", &foreign{ColRef{Idx: 0, K: vtypes.KindI64}}, &foreign{ColRef{Idx: 0, K: vtypes.KindI64}}, false},

		{"a NULL and a zero", lit(vtypes.NullValue(vtypes.KindI64)), lit(vtypes.I64Value(0)), false},
		{"equal strings", lit(vtypes.StrValue("a")), lit(vtypes.StrValue("a")), true},
		{"comparisons", cmp(CmpLt, 0), cmp(CmpLt, 0), true},
		{"comparison operators differ", cmp(CmpLt, 0), cmp(CmpLe, 0), false},
		{"betweens", between(9), between(9), true},
		{"between bounds differ", between(9), between(8), false},
		{"likes", &Like{In: colI(0), Pattern: "a%"}, &Like{In: colI(0), Pattern: "a%"}, true},
		{"like and not like", &Like{In: colI(0), Pattern: "a%"}, &Like{In: colI(0), Pattern: "a%", Negate: true}, false},
		{"in lists", in(1, 2), in(1, 2), true},
		{"in lists differ", in(1, 2), in(1, 3), false},
		{"in list lengths differ", in(1, 2), in(1), false},
		{"conjunctions", &And{Preds: []Scalar{cmp(CmpLt, 0), cmp(CmpGt, 1)}}, &And{Preds: []Scalar{cmp(CmpLt, 0), cmp(CmpGt, 1)}}, true},
		{"conjuncts in another order", &And{Preds: []Scalar{cmp(CmpLt, 0), cmp(CmpGt, 1)}}, &And{Preds: []Scalar{cmp(CmpGt, 1), cmp(CmpLt, 0)}}, false},
		{"disjunctions", &Or{Preds: []Scalar{cmp(CmpLt, 0), cmp(CmpGt, 1)}}, &Or{Preds: []Scalar{cmp(CmpLt, 0), cmp(CmpGt, 1)}}, true},
		{"and beside or", &And{Preds: []Scalar{cmp(CmpLt, 0)}}, &Or{Preds: []Scalar{cmp(CmpLt, 0)}}, false},
		{"cases", kase(1), kase(1), true},
		{"case arms differ", kase(1), kase(3), false},
		{"years", &YearOf{In: colI(0)}, &YearOf{In: colI(0)}, true},
		{"years of different columns", &YearOf{In: colI(0)}, &YearOf{In: colI(1)}, false},
		{"null tests", &IsNull{In: colI(0)}, &IsNull{In: colI(0)}, true},
		{"is null and is not null", &IsNull{In: colI(0)}, &IsNull{In: colI(0), Negate: true}, false},
		{"NaN literals", lit(vtypes.F64Value(math.NaN())), lit(vtypes.F64Value(math.NaN())), false},
		{"one parameter", param(1), param(1), true},
		{"two parameters", param(1), param(2), false},
		{"one parameter as two kinds", param(1), &Param{Idx: 1, K: vtypes.KindF64}, false},
		{"a tree holding a parameter", arith(OpMul, colI(0), param(1)), arith(OpMul, colI(0), param(1)), true},
		{"COUNT(*)'s argument", nil, nil, true},
		{"nil beside a column", nil, colI(0), false},
	} {
		if got := Equal(tc.a, tc.b); got != tc.same {
			t.Errorf("%s: Equal(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.same)
		}
		if got := Equal(tc.b, tc.a); got != tc.same {
			t.Errorf("%s: Equal(%v, %v) = %v, want %v", tc.name, tc.b, tc.a, got, tc.same)
		}
	}
}

// TestNegate: NOT in negation normal form, one row per operand kind of
// Negate's table, and a double negation is the expression again.
func TestNegate(t *testing.T) {
	colI := func(i int) Scalar { return c(i, vtypes.KindI64) }
	colF := func(i int) Scalar { return c(i, vtypes.KindF64) }
	lit := func(v vtypes.Value) Scalar { return &Lit{Val: v} }
	i64, f64 := lit(vtypes.I64Value(5)), lit(vtypes.F64Value(0.5))
	null, no := lit(vtypes.NullValue(vtypes.KindF64)), lit(vtypes.BoolValue(false))
	lt := &Cmp{Op: CmpLt, L: colI(0), R: i64}
	fLt := &Cmp{Op: CmpLt, L: colF(1), R: f64}
	like := &Like{In: c(2, vtypes.KindStr), Pattern: "a%"}
	isNull := &IsNull{In: colI(0)}
	flag := c(3, vtypes.KindBool)
	for _, tc := range []struct {
		name    string
		in, out Scalar
	}{
		{"AND", &And{Preds: []Scalar{lt, like}}, &Or{Preds: []Scalar{&Cmp{Op: CmpGe, L: colI(0), R: i64}, &Like{In: like.In, Pattern: "a%", Negate: true}}}},
		{"OR", &Or{Preds: []Scalar{lt, isNull}}, &And{Preds: []Scalar{&Cmp{Op: CmpGe, L: colI(0), R: i64}, &IsNull{In: colI(0), Negate: true}}}},
		{"BIGINT <", lt, &Cmp{Op: CmpGe, L: colI(0), R: i64}},
		{"DOUBLE <", fLt, &Cmp{Op: CmpEq, L: fLt, R: no}},
		{"BIGINT beside a DOUBLE literal", &Cmp{Op: CmpGt, L: colI(0), R: f64}, &Cmp{Op: CmpEq, L: &Cmp{Op: CmpGt, L: colI(0), R: f64}, R: no}},
		{"DOUBLE =", &Cmp{Op: CmpEq, L: colF(1), R: f64}, &Cmp{Op: CmpNe, L: colF(1), R: f64}},
		{"DOUBLE < NULL", &Cmp{Op: CmpLt, L: colF(1), R: null}, &Cmp{Op: CmpGe, L: colF(1), R: null}},
		{"DOUBLE < parameter", &Cmp{Op: CmpLt, L: colF(1), R: &Param{Idx: 1, K: vtypes.KindF64}}, &Cmp{Op: CmpGe, L: colF(1), R: &Param{Idx: 1, K: vtypes.KindF64}}},
		{"LIKE", like, &Like{In: like.In, Pattern: "a%", Negate: true}},
		{"IS NOT NULL", &IsNull{In: colI(0), Negate: true}, isNull},
		{"IN with a NULL member", &In{In: colI(0), List: []vtypes.Value{vtypes.I64Value(2), vtypes.NullValue(vtypes.KindI64)}},
			&And{Preds: []Scalar{&Cmp{Op: CmpNe, L: colI(0), R: lit(vtypes.I64Value(2))}, &Cmp{Op: CmpNe, L: colI(0), R: lit(vtypes.NullValue(vtypes.KindI64))}}}},
		{"TRUE", lit(vtypes.BoolValue(true)), no},
		{"a boolean column", flag, &Cmp{Op: CmpEq, L: flag, R: no}},
	} {
		if got := Negate(tc.in); !Equal(got, tc.out) {
			t.Errorf("%s: Negate(%s) = %s, want %s", tc.name, tc.in, got, tc.out)
		}
	}
	for _, s := range []Scalar{lt, &Cmp{Op: CmpNe, L: colF(1), R: f64}, like, isNull} {
		if got := Negate(Negate(s)); !Equal(got, s) {
			t.Errorf("Negate(Negate(%s)) = %s", s, got)
		}
	}
	if got, want := Negate(Negate(flag)), (&Cmp{Op: CmpNe, L: flag, R: no}); !Equal(got, want) {
		t.Errorf("Negate(Negate(%s)) = %s, want %s", flag, got, want)
	}
}

func TestCmpOpFlip(t *testing.T) {
	cases := map[CmpOp]CmpOp{
		CmpEq: CmpEq, CmpNe: CmpNe,
		CmpLt: CmpGt, CmpLe: CmpGe, CmpGt: CmpLt, CmpGe: CmpLe,
	}
	for in, want := range cases {
		if in.Flip() != want {
			t.Errorf("%v.Flip() = %v, want %v", in, in.Flip(), want)
		}
	}
}

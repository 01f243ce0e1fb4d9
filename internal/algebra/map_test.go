package algebra

import (
	"reflect"
	"sync"
	"testing"

	"vectorwise/internal/vtypes"
)

// The traversal's contract (map.go): identity is free, a change copies
// exactly the path to the root, the input is never mutated, and one
// template binds from any number of goroutines.

func param(i int) Scalar { return &Param{Idx: i, K: vtypes.KindI64} }

func eq(l, r Scalar) Scalar { return &Cmp{Op: CmpEq, L: l, R: r} }

func testScan(table string) *ScanNode {
	return &ScanNode{Table: table, Cols: []int{0, 1}, Out: vtypes.NewSchema(
		vtypes.Column{Name: "a", Kind: vtypes.KindI64}, vtypes.Column{Name: "b", Kind: vtypes.KindI64})}
}

// joinTemplate is a plan with a parameter slot ($1..$8) in every scalar
// position a node kind has, over every node kind. Each call builds an
// independent copy: the deep snapshot the no-mutation tests compare to.
func joinTemplate() Node {
	agg := &AggNode{
		Input:   &SelectNode{Input: testScan("l"), Pred: &And{Preds: []Scalar{eq(c(0, vtypes.KindI64), param(1)), eq(c(1, vtypes.KindI64), param(2))}}},
		GroupBy: []Scalar{&Arith{Op: OpAdd, L: c(0, vtypes.KindI64), R: param(3), K: vtypes.KindI64}},
		Aggs:    []AggExpr{{Fn: AggSum, Arg: &Arith{Op: OpMul, L: c(1, vtypes.KindI64), R: param(4), K: vtypes.KindI64}}, {Fn: AggCountStar}},
		Names:   []string{"g", "s", "n"},
	}
	join := &JoinNode{
		Left:      agg,
		Right:     &UnionAllNode{Inputs: []Node{testScan("r"), &RemoteNode{Shard: 1, Out: testScan("r").Out}}},
		LeftKeys:  []Scalar{&Arith{Op: OpAdd, L: c(0, vtypes.KindI64), R: param(5), K: vtypes.KindI64}},
		RightKeys: []Scalar{&Arith{Op: OpAdd, L: c(0, vtypes.KindI64), R: param(6), K: vtypes.KindI64}},
	}
	proj := &ProjectNode{Input: join, Names: []string{"x"},
		Exprs: []Scalar{&Arith{Op: OpSub, L: c(1, vtypes.KindI64), R: param(7), K: vtypes.KindI64}}}
	sort := &SortNode{Input: proj, Keys: []SortKey{{Expr: &Arith{Op: OpAdd, L: c(0, vtypes.KindI64), R: param(8), K: vtypes.KindI64}, Desc: true}}}
	return &LimitNode{Input: sort, N: 3}
}

func bindArgs() []vtypes.Value {
	args := make([]vtypes.Value, 8)
	for i := range args {
		args[i] = vtypes.I64Value(int64(100 + i))
	}
	return args
}

// everyNode lists n and all its descendants.
func everyNode(n Node) []Node {
	out := []Node{n}
	for _, ch := range n.Children() {
		out = append(out, everyNode(ch)...)
	}
	return out
}

func TestMapIdentityReturnsSamePointer(t *testing.T) {
	tmpl := joinTemplate()
	kinds := map[reflect.Type]bool{}
	for _, n := range everyNode(tmpl) {
		kinds[reflect.TypeOf(n)] = true
		got, err := MapNode(n,
			func(s Scalar) (Scalar, error) { return s, nil },
			func(n Node) (Node, error) { return n, nil })
		if err != nil || got != n {
			t.Errorf("%T: identity returned %p (err %v), want the input %p", n, got, err, n)
		}
	}
	if len(kinds) != 9 { // Scan, Select, Project, Agg, Join, Sort, Limit, UnionAll, Remote
		t.Fatalf("fixture covers %d node kinds, want all 9", len(kinds))
	}
	// A plan without parameter slots binds to itself.
	plain := &LimitNode{N: 1, Input: &SelectNode{Input: testScan("t"), Pred: eq(c(0, vtypes.KindI64), &Lit{Val: vtypes.I64Value(1)})}}
	if got, err := BindParams(plain, nil); err != nil || got != Node(plain) {
		t.Fatalf("BindParams of a slot-free plan returned %p (err %v), want the input", got, err)
	}
}

func TestMapNodeCopiesExactlyThePathToTheChange(t *testing.T) {
	tmpl := joinTemplate()
	// Replace the right side's scan.
	out, err := MapNode(tmpl, nil, func(n Node) (Node, error) {
		if s, ok := n.(*ScanNode); ok && s.Table == "r" {
			clone := *s
			clone.PartHi = 4
			return &clone, nil
		}
		return n, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	limit, olimit := tmpl.(*LimitNode), out.(*LimitNode)
	join := limit.Input.(*SortNode).Input.(*ProjectNode).Input.(*JoinNode)
	ojoin := olimit.Input.(*SortNode).Input.(*ProjectNode).Input.(*JoinNode)
	union, ounion := join.Right.(*UnionAllNode), ojoin.Right.(*UnionAllNode)
	for name, pair := range map[string][2]Node{
		"limit": {limit, olimit}, "sort": {limit.Input, olimit.Input},
		"project": {limit.Input.(*SortNode).Input, olimit.Input.(*SortNode).Input},
		"join":    {join, ojoin}, "union": {union, ounion}, "scan": {union.Inputs[0], ounion.Inputs[0]},
	} {
		if pair[0] == pair[1] {
			t.Errorf("%s is on the path to the change and was not copied", name)
		}
	}
	if join.Left != ojoin.Left {
		t.Error("the join's left subtree is off the path and was copied")
	}
	if union.Inputs[1] != ounion.Inputs[1] {
		t.Error("the union's other input is off the path and was copied")
	}
	if &join.LeftKeys[0] != &ojoin.LeftKeys[0] {
		t.Error("the copied join does not share its untouched key list")
	}
	if !reflect.DeepEqual(tmpl, joinTemplate()) {
		t.Error("MapNode mutated its input")
	}
}

// paramsIn lists the parameter slots MapNode reaches in a plan.
func paramsIn(t *testing.T, n Node) map[int]bool {
	t.Helper()
	seen := map[int]bool{}
	_, err := MapNode(n, func(s Scalar) (Scalar, error) {
		if p, ok := s.(*Param); ok {
			seen[p.Idx] = true
		}
		return s, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return seen
}

func TestMapNodeReachesEveryScalar(t *testing.T) {
	seen := paramsIn(t, joinTemplate())
	for i, where := range []string{"", "conjunct", "second conjunct", "group key", "aggregate argument",
		"left join key", "right join key", "projection", "sort key"} {
		if i > 0 && !seen[i] {
			t.Errorf("$%d (%s) was never visited", i, where)
		}
	}
}

func TestPassesLeaveTheTemplateAlone(t *testing.T) {
	tmpl := joinTemplate()
	bound, err := BindParams(tmpl, bindArgs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tmpl, joinTemplate()) {
		t.Fatal("BindParams mutated the template")
	}
	if left := paramsIn(t, bound); len(left) != 0 {
		t.Fatalf("parameter slots %v survived BindParams", left)
	}
}

func TestConcurrentBindsOfOneTemplate(t *testing.T) {
	tmpl := joinTemplate()
	want, err := BindParams(joinTemplate(), bindArgs())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, err := BindParams(tmpl, bindArgs())
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent bind: %v\n%s", err, Explain(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(tmpl, joinTemplate()) {
		t.Fatal("concurrent binds mutated the template")
	}
}

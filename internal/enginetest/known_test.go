package enginetest

import (
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/sql"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// TestKnownLeavesSuitePredicates: no TPC-H column is nullable, so the
// NULL rule (algebra.Known) returns every predicate of the suite's plans
// as it is, each Select's and each CASE condition's, and allocates
// nothing doing so: the engines that apply it at compile time pay only a
// walk of the predicate.
func TestKnownLeavesSuitePredicates(t *testing.T) {
	cat := tpchFixture(t)
	type pred struct {
		query string
		p     algebra.Scalar
		in    *vtypes.Schema
		cond  bool // a CASE condition
	}
	var preds []pred
	var cases func(q string, s algebra.Scalar, in *vtypes.Schema)
	cases = func(q string, s algebra.Scalar, in *vtypes.Schema) {
		if c, ok := s.(*algebra.Case); ok {
			preds = append(preds, pred{q, c.Cond, in, true})
		}
		for _, o := range algebra.Operands(s) {
			cases(q, o, in)
		}
	}
	var walk func(q string, n algebra.Node)
	walk = func(q string, n algebra.Node) {
		switch t := n.(type) {
		case *algebra.SelectNode:
			preds = append(preds, pred{q, t.Pred, t.Input.Schema(), false})
			cases(q, t.Pred, t.Input.Schema())
		case *algebra.ProjectNode:
			for _, e := range t.Exprs {
				cases(q, e, t.Input.Schema())
			}
		case *algebra.AggNode:
			for _, a := range t.Aggs {
				if a.Arg != nil {
					cases(q, a.Arg, t.Input.Schema())
				}
			}
		}
		for _, c := range n.Children() {
			walk(q, c)
		}
	}
	for _, q := range tpch.SQLSuite() {
		st, err := sql.Parse(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		walk(q.Name, plan)
	}
	conds := 0
	for _, c := range preds {
		var got algebra.Scalar
		if allocs := testing.AllocsPerRun(20, func() { got = algebra.Known(c.p, c.in) }); allocs != 0 || got != c.p {
			t.Errorf("%s: Known(%s) = %s with %v allocations, want the predicate itself and none", c.query, c.p, got, allocs)
		}
		if c.cond {
			conds++
		}
	}
	if len(preds) < 12 || conds == 0 {
		t.Fatalf("%d predicates, %d of them CASE conditions: the walk missed the suite's", len(preds), conds)
	}
}

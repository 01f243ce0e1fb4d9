package enginetest

import (
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// planTPCH returns the planner's plan of a suite query.
func planTPCH(t *testing.T, cat *catalog.Catalog, name string) algebra.Node {
	t.Helper()
	q, ok := tpch.FindSQL(name)
	if !ok {
		t.Fatalf("no %s in the suite", name)
	}
	st, err := sql.Parse(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return plan
}

// aggNodes returns the aggregates of a plan, top-down.
func aggNodes(n algebra.Node) []*algebra.AggNode {
	var out []*algebra.AggNode
	if a, ok := n.(*algebra.AggNode); ok {
		out = append(out, a)
	}
	for _, c := range n.Children() {
		out = append(out, aggNodes(c)...)
	}
	return out
}

// contains reports whether s holds a subtree Equal to sub.
func contains(s, sub algebra.Scalar) bool {
	found := false
	algebra.MapScalar(s, func(x algebra.Scalar) (algebra.Scalar, error) {
		found = found || algebra.Equal(x, sub)
		return x, nil
	})
	return found
}

// TestQ1ComputesDiscountPriceOnce: Q1 sums l_extendedprice * (1 -
// l_discount) alone and inside sum_charge. The planner computes it once,
// as the one computed column of a Project under each aggregate that reads
// lineitem — serial, and in each partition under the parallel rewrite —
// and both sums read that column; no aggregate argument computes it.
func TestQ1ComputesDiscountPriceOnce(t *testing.T) {
	cat, err := tpch.Generate(diffSF, 8192) // row groups for the partitions
	if err != nil {
		t.Fatal(err)
	}
	plan := planTPCH(t, cat, "Q1")
	arith := func(op algebra.ArithOp, l, r algebra.Scalar) algebra.Scalar {
		a, err := algebra.NewArith(op, l, r)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// Q1 reads l_quantity, l_extendedprice, l_discount, l_tax, ... in
	// that order after column pruning.
	col := func(i int) algebra.Scalar { return &algebra.ColRef{Idx: i, K: vtypes.KindF64} }
	product := arith(algebra.OpMul, col(1), arith(algebra.OpSub, &algebra.Lit{Val: vtypes.F64Value(1)}, col(2)))
	for _, tc := range []struct {
		name  string
		plan  algebra.Node
		scans int // aggregates over lineitem
	}{
		{"serial", plan, 1},
		{"parallel 2", rewriter.Parallelize(plan, cat, 2), 2},
	} {
		scans := 0
		for _, agg := range aggNodes(tc.plan) {
			if _, final := agg.Input.(*algebra.UnionAllNode); final {
				continue
			}
			scans++
			for _, a := range agg.Aggs {
				if a.Arg != nil && contains(a.Arg, product) {
					t.Errorf("%s: %s computes %s\n%s", tc.name, a, product, algebra.Explain(tc.plan))
				}
			}
			proj, ok := agg.Input.(*algebra.ProjectNode)
			if !ok {
				t.Fatalf("%s: no Project under the aggregate\n%s", tc.name, algebra.Explain(tc.plan))
			}
			k := -1
			for i, e := range proj.Exprs {
				if _, ref := e.(*algebra.ColRef); ref {
					continue
				}
				if k >= 0 || !algebra.Equal(e, product) {
					t.Fatalf("%s: the Project computes %v, want %s alone\n%s", tc.name, proj.Exprs, product, algebra.Explain(tc.plan))
				}
				k = i
			}
			readers := 0
			for _, a := range agg.Aggs {
				if a.Arg != nil && contains(a.Arg, &algebra.ColRef{Idx: k, K: vtypes.KindF64}) {
					readers++
				}
			}
			if k < 0 || readers != 2 {
				t.Errorf("%s: %d aggregates read the product's column #%d, want 2\n%s", tc.name, readers, k, algebra.Explain(tc.plan))
			}
		}
		if scans != tc.scans {
			t.Errorf("%s: %d aggregates over lineitem, want %d\n%s", tc.name, scans, tc.scans, algebra.Explain(tc.plan))
		}
	}
}

// TestQ14HoistsNothingFromCaseArm: Q14 sums the discounted price inside a
// CASE arm and alone. The arm is evaluated only for the rows its
// condition keeps, so the occurrence in it is not counted: the product
// occurs once elsewhere, and nothing is hoisted.
func TestQ14HoistsNothingFromCaseArm(t *testing.T) {
	plan := planTPCH(t, tpchFixture(t), "Q14")
	if out := algebra.Explain(plan); strings.Contains(out, "#p") {
		t.Errorf("Q14 hoisted a column:\n%s", out)
	}
}

package sql

// Query-level planning beyond a single SELECT block: UNION [ALL] /
// EXCEPT / INTERSECT over the existing union machinery, and the
// subquery-to-join rewrites (uncorrelated scalar subqueries via
// constant-key joins, IN (SELECT ...) via semi/anti joins).

import (
	"fmt"

	"vectorwise/internal/algebra"
	"vectorwise/internal/vtypes"
)

// PlanQuery lowers any query statement — a SELECT or a set-operation
// chain — onto the algebra and finishes the plan (see finishPlan).
func (p *Planner) PlanQuery(s Stmt) (algebra.Node, error) {
	node, err := p.planQuery(s)
	if err != nil {
		return nil, err
	}
	return p.finishPlan(node), nil
}

func (p *Planner) planQuery(s Stmt) (algebra.Node, error) {
	switch t := s.(type) {
	case *SelectStmt:
		return p.planSelect(t)
	case *SetOpStmt:
		return p.planSetOp(t)
	default:
		return nil, fmt.Errorf("sql: not a query statement: %T", s)
	}
}

// planSetOp lowers a set operation. UNION ALL is the engine's union;
// UNION adds a duplicate-eliminating group-by over it; INTERSECT and
// EXCEPT run a deduplicated left branch through a semi/anti join
// against the right branch on all columns. In the engine's hash joins a
// NULL key never matches, so a row with a NULL column is never in an
// INTERSECT and always survives an EXCEPT — a documented divergence
// from SQL's set operations, which treat NULLs as not distinct (TPC-H
// columns are non-null).
func (p *Planner) planSetOp(s *SetOpStmt) (algebra.Node, error) {
	left, err := p.planQuery(s.Left)
	if err != nil {
		return nil, err
	}
	right, err := p.planQuery(s.Right)
	if err != nil {
		return nil, err
	}
	ls, rs := left.Schema(), right.Schema()
	if ls.Len() != rs.Len() {
		return nil, fmt.Errorf("sql: %s branches have %d and %d columns", s.Op, ls.Len(), rs.Len())
	}
	for i := 0; i < ls.Len(); i++ {
		if ls.Col(i).Kind.StorageClass() != rs.Col(i).Kind.StorageClass() {
			return nil, fmt.Errorf("sql: %s column %d: type mismatch (%v vs %v)",
				s.Op, i+1, ls.Col(i).Kind, rs.Col(i).Kind)
		}
	}
	var node algebra.Node
	switch s.Op {
	case "union all":
		node = &algebra.UnionAllNode{Inputs: []algebra.Node{left, right}}
	case "union":
		node = dedupNode(&algebra.UnionAllNode{Inputs: []algebra.Node{left, right}})
	case "intersect":
		node = allColsJoin(dedupNode(left), right, algebra.JoinLeftSemi)
	case "except":
		node = allColsJoin(dedupNode(left), right, algebra.JoinLeftAnti)
	default:
		return nil, fmt.Errorf("sql: unknown set operation %q", s.Op)
	}
	if len(s.OrderBy) > 0 {
		sc := schemaScope(node.Schema())
		var keys []algebra.SortKey
		for _, o := range s.OrderBy {
			lo, err := p.lower(o.Expr, sc)
			if err != nil {
				return nil, err
			}
			keys = append(keys, algebra.SortKey{Expr: lo, Desc: o.Desc})
		}
		node = &algebra.SortNode{Input: node, Keys: keys}
	}
	if s.Limit >= 0 {
		node = &algebra.LimitNode{Input: node, N: s.Limit}
	}
	return node, nil
}

// dedupNode eliminates duplicate rows by grouping on every column with
// no aggregates.
func dedupNode(in algebra.Node) algebra.Node {
	sch := in.Schema()
	groups := make([]algebra.Scalar, sch.Len())
	names := make([]string, sch.Len())
	for i := 0; i < sch.Len(); i++ {
		groups[i] = &algebra.ColRef{Idx: i, K: sch.Col(i).Kind}
		names[i] = sch.Col(i).Name
	}
	return &algebra.AggNode{Input: in, GroupBy: groups, Names: names}
}

// allColsJoin joins two same-width inputs on every column pairwise.
func allColsJoin(l, r algebra.Node, typ algebra.JoinType) algebra.Node {
	lsch, rsch := l.Schema(), r.Schema()
	lk := make([]algebra.Scalar, lsch.Len())
	rk := make([]algebra.Scalar, rsch.Len())
	for i := range lk {
		lk[i] = &algebra.ColRef{Idx: i, K: lsch.Col(i).Kind}
		rk[i] = &algebra.ColRef{Idx: i, K: rsch.Col(i).Kind}
	}
	return &algebra.JoinNode{Left: l, Right: r, LeftKeys: lk, RightKeys: rk, Type: typ}
}

// asInSub unwraps a conjunct that is an IN-subquery predicate,
// flattening `NOT (x IN (SELECT ...))` into the negated form.
func asInSub(e Expr) *InSubExpr {
	switch t := e.(type) {
	case *InSubExpr:
		return t
	case *NotExpr:
		if in, ok := t.In.(*InSubExpr); ok {
			return &InSubExpr{In: in.In, Sel: in.Sel, Negate: !in.Negate}
		}
	}
	return nil
}

// planInSubquery rewrites `x [NOT] IN (SELECT c FROM ...)` into a
// semi/anti join of in's rows against the subplan. The schema is
// unchanged, so in's scope stays valid for the result.
func (p *Planner) planInSubquery(in *joinInput, sub *InSubExpr) (*joinInput, error) {
	probe, err := p.lower(sub.In, in.sc)
	if err != nil {
		return nil, err
	}
	plan, err := p.planSelect(sub.Sel)
	if err != nil {
		return nil, fmt.Errorf("sql: IN subquery: %w", err)
	}
	if plan.Schema().Len() != 1 {
		return nil, fmt.Errorf("sql: IN subquery must produce exactly one column, got %d", plan.Schema().Len())
	}
	key := plan.Schema().Col(0).Kind
	if probe.Kind().StorageClass() != key.StorageClass() {
		return nil, fmt.Errorf("sql: IN subquery key type mismatch (%v vs %v)", probe.Kind(), key)
	}
	typ := algebra.JoinLeftSemi
	if sub.Negate {
		typ = algebra.JoinLeftAnti
	}
	right := &joinInput{node: plan, card: p.estimates().card(plan), at: in.at}
	return p.join(in, right, []algebra.Scalar{probe}, []algebra.Scalar{&algebra.ColRef{Idx: 0, K: key}}, typ), nil
}

// attachScalarSubqueries replaces every scalar subquery inside e with a
// reference to a fresh internal column ("#sqN"), attaching each
// subquery's one-row plan to node through a constant-key inner join
// (both sides key on literal 1 — a cross join with one build row). The
// scope gains an entry for each attached column, so the rewritten
// expression lowers like any other.
func (p *Planner) attachScalarSubqueries(node algebra.Node, sc *scope, e Expr, n *int) (algebra.Node, Expr, error) {
	var err error
	attach := func(t *SubqueryExpr) Expr {
		sub, kind, serr := p.planScalarSubquery(t.Sel)
		if serr != nil {
			if err == nil {
				err = serr
			}
			return t
		}
		name := fmt.Sprintf("#sq%d", *n)
		*n++
		renamed := &algebra.ProjectNode{
			Input: sub,
			Exprs: []algebra.Scalar{&algebra.ColRef{Idx: 0, K: kind}},
			Names: []string{name},
		}
		one := func() algebra.Scalar { return &algebra.Lit{Val: vtypes.I64Value(1)} }
		sc.entries = append(sc.entries, scopeEntry{schema: renamed.Schema(), offset: sc.width()})
		node = &algebra.JoinNode{
			Left:      node,
			Right:     renamed,
			LeftKeys:  []algebra.Scalar{one()},
			RightKeys: []algebra.Scalar{one()},
			Type:      algebra.JoinInner,
		}
		return &Ident{Name: name}
	}
	out := MapExpr(e, func(x Expr) Expr {
		if t, ok := x.(*SubqueryExpr); ok {
			return attach(t)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return node, out, nil
}

// planScalarSubquery plans an uncorrelated scalar subquery. To
// guarantee exactly one row without runtime checks, the subquery must
// be a single ungrouped aggregate (`SELECT AVG(x) FROM ...`); a
// correlated reference fails inside planSelect with an unknown-column
// error, since the subquery plans against a fresh scope.
func (p *Planner) planScalarSubquery(sel *SelectStmt) (algebra.Node, vtypes.Kind, error) {
	if len(sel.Items) != 1 || sel.Items[0].Star || !containsAgg(sel.Items[0].Expr) || len(sel.GroupBy) > 0 {
		return nil, 0, fmt.Errorf("sql: scalar subquery must be a single aggregate expression with no GROUP BY")
	}
	sub, err := p.planSelect(sel)
	if err != nil {
		return nil, 0, fmt.Errorf("sql: scalar subquery: %w", err)
	}
	return sub, sub.Schema().Col(0).Kind, nil
}

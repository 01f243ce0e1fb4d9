package sql

// The join phase of planSelect: which tables join first, and which side
// of each join is hashed. Both are decided here, while columns are still
// names resolved through a scope — every expression above the joins is
// lowered afterwards against the layout the chosen tree produces — from
// the estimates of estimate.go:
//
//   - a maximal run of inner joins is a graph (tables, ON equalities);
//     it is joined greedily, each step taking the connected pair with
//     the smallest estimated result (of equal results, the larger
//     inputs: that join discards more);
//   - LEFT, SEMI and ANTI JOIN clauses are not reordered: everything
//     before one is joined, then the clause applies;
//   - `x IN (SELECT ...)` whose x belongs to one table filters that
//     table, so it becomes a semi join directly above it, before the
//     ordering sees the table's (now smaller) estimate;
//   - the smaller input of a join is its right, hashed side. A semi, anti
//     or left outer join cannot swap its inputs; it sets
//     algebra.JoinNode.BuildLeft instead.
//
// Equal estimates keep the order the statement is written in, so a
// catalog without statistics — empty tables, the cluster coordinator's
// schema-only catalog — plans exactly as FROM says.

import (
	"fmt"
	"slices"

	"vectorwise/internal/algebra"
)

// joinInput is one operand of the join phase: a FROM-clause table under
// the conjuncts pushed down to it, or a tree joined from several.
type joinInput struct {
	node algebra.Node
	sc   *scope // node's output columns, offsets local to node
	card card
	at   int // FROM position of its first table
}

// joinEdge is one ON equality within a run of inner joins: l's columns
// belong to the run's inputs lin, r's to rin.
type joinEdge struct {
	l, r     Expr
	lin, rin []int
}

var errJoinCondition = fmt.Errorf("sql: cannot resolve join condition")

// fromInputs builds one input per table of the FROM clause, in FROM
// order, each under the WHERE conjuncts that reference it alone — plain
// ones as a selection, `x IN (SELECT ...)` as a semi or anti join — and
// returns the conjuncts left over. The right table of a LEFT JOIN takes
// none: WHERE applies after null-extension, and filtering below the join
// would change which left rows survive. (Semi/anti joins keep the push:
// their right side never emits columns, so a right-only conjunct is only
// satisfiable as a filter on it.)
func (p *Planner) fromInputs(s *SelectStmt, conjuncts, subq []Expr) ([]*joinInput, []Expr, []Expr, error) {
	estimate := len(s.Joins) > 0 || len(subq) > 0 // only a statement with a join to plan
	inputs := make([]*joinInput, 1+len(s.Joins))
	for i := range inputs {
		tr, kind := s.From[0], "inner"
		if i > 0 {
			tr, kind = s.Joins[i-1].Table, s.Joins[i-1].Kind
		}
		in := &joinInput{sc: &scope{}, at: i}
		var err error
		if in.node, err = p.baseScan(tr, in.sc); err != nil {
			return nil, nil, nil, err
		}
		in.sc.entries[0].from = i
		if kind != "left" {
			if in.node, conjuncts, err = p.pushdown(in.node, in.sc, conjuncts, tr.Alias); err != nil {
				return nil, nil, nil, err
			}
		}
		if estimate {
			in.card = p.estimates().card(in.node)
		}
		var rest []Expr
		for _, c := range subq {
			if sub := asInSub(c); sub != nil && kind != "left" && onlyReferences(sub.In, tr.Alias, in.sc) {
				if in, err = p.planInSubquery(in, sub); err != nil {
					return nil, nil, nil, err
				}
				continue
			}
			rest = append(rest, c)
		}
		inputs[i], subq = in, rest
	}
	return inputs, conjuncts, subq, nil
}

// joinTree joins the inputs as the JOIN clauses say: runs of inner joins
// in estimated order, the other kinds in place.
func (p *Planner) joinTree(s *SelectStmt, inputs []*joinInput) (*joinInput, error) {
	run := inputs[:1:1]
	var edges []joinEdge
	for i, j := range s.Joins {
		right := inputs[i+1]
		clause, err := onEdges(j.On, run, right)
		if err != nil {
			return nil, err
		}
		if j.Kind == "inner" {
			run, edges = append(run, right), append(edges, clause...)
			continue
		}
		left, err := p.orderJoins(run, edges)
		if err != nil {
			return nil, err
		}
		lk, rk, err := p.lowerEdges(clause, left, right)
		if err != nil {
			return nil, err
		}
		typ := map[string]algebra.JoinType{"left": algebra.JoinLeftOuter, "semi": algebra.JoinLeftSemi, "anti": algebra.JoinLeftAnti}[j.Kind]
		run, edges = []*joinInput{p.join(left, right, lk, rk, typ)}, nil
	}
	return p.orderJoins(run, edges)
}

// onEdges resolves one ON clause: each equality must compare columns of
// the new table with columns of the tables before it (either way
// round; a side without columns counts as whichever is missing).
func onEdges(on []OnEq, run []*joinInput, right *joinInput) ([]joinEdge, error) {
	all := append(run[:len(run):len(run)], right)
	before := func(ins []int) bool { return len(ins) == 0 || ins[len(ins)-1] < len(run) }
	after := func(ins []int) bool { return len(ins) == 0 || ins[0] == len(run) }
	edges := make([]joinEdge, len(on))
	for i, eq := range on {
		lin, errL := inputsOf(eq.L, all)
		rin, errR := inputsOf(eq.R, all)
		e := joinEdge{l: eq.L, r: eq.R, lin: lin, rin: rin}
		switch {
		case errL != nil || errR != nil:
			return nil, errJoinCondition
		case before(lin) && after(rin):
		case before(rin) && after(lin):
			e = joinEdge{l: eq.R, r: eq.L, lin: rin, rin: lin}
		default:
			return nil, errJoinCondition
		}
		if len(e.lin) == 0 {
			e.lin = []int{0}
		}
		if len(e.rin) == 0 {
			e.rin = []int{len(run)}
		}
		edges[i] = e
	}
	return edges, nil
}

// inputsOf lists, ascending, the inputs whose columns e references.
func inputsOf(e Expr, ins []*joinInput) ([]int, error) {
	var out []int
	var err error
	walkIdents(e, func(id *Ident) {
		found := -1
		for i, in := range ins {
			switch n := in.sc.matches(id.Qualifier, id.Name); {
			case n > 1 || n == 1 && found >= 0:
				err = fmt.Errorf("sql: ambiguous column %q", id.Name)
			case n == 1:
				found = i
			}
		}
		if found < 0 {
			err = fmt.Errorf("sql: unknown column %q", qualName(id.Qualifier, id.Name))
			return
		}
		if !slices.Contains(out, found) {
			out = append(out, found)
		}
	})
	slices.Sort(out)
	return out, err
}

// orderJoins inner-joins a run of inputs along its edges, smallest
// estimated result first, into one input.
func (p *Planner) orderJoins(run []*joinInput, edges []joinEdge) (*joinInput, error) {
	if len(run) == 1 {
		return run[0], nil
	}
	tree := append([]*joinInput(nil), run...) // tree[i]: what input i is part of by now
	// side returns the one tree all of ins are part of, or nil.
	side := func(ins []int) *joinInput {
		t := tree[ins[0]]
		for _, i := range ins[1:] {
			if tree[i] != t {
				return nil
			}
		}
		return t
	}
	// between returns, oriented a to b, the edges that join trees a and b.
	between := func(a, b *joinInput) (keys []joinEdge) {
		for _, e := range edges {
			switch l, r := side(e.lin), side(e.rin); {
			case l == a && r == b:
				keys = append(keys, e)
			case l == b && r == a:
				keys = append(keys, joinEdge{l: e.r, r: e.l, lin: e.rin, rin: e.lin})
			}
		}
		return keys
	}
	for joined := 1; joined < len(run); joined++ {
		var a, b *joinInput // the best pair so far, a before b in FROM
		var alk, brk []algebra.Scalar
		var rows, work float64
		for _, e := range edges {
			l, r := side(e.lin), side(e.rin)
			if l == nil || r == nil || l == r {
				continue
			}
			if l.at > r.at {
				l, r = r, l
			}
			lk, rk, err := p.lowerEdges(between(l, r), l, r)
			if err != nil {
				return nil, err
			}
			// Smallest result first; of equal results the one that reads
			// more rows to get there, so discards more of them before any
			// later join; of equal joins the one FROM lists first.
			n, w := p.estimates().join(l.card, r.card, lk, rk, algebra.JoinInner).rows, l.card.rows+r.card.rows
			if a == nil || n < rows || n == rows && (w > work || w == work && (r.at < b.at || r.at == b.at && l.at < a.at)) {
				a, b, alk, brk, rows, work = l, r, lk, rk, n, w
			}
		}
		if a == nil {
			return nil, errJoinCondition
		}
		ab := p.join(a, b, alk, brk, algebra.JoinInner)
		// The edges between a and b were this join's keys. Of the rest,
		// an equality with a side spanning both (a.x + b.y = c.z, c joined
		// earlier) could be no join's key; now that its columns are
		// together it filters.
		rest := edges[:0]
		for _, e := range edges {
			if l, r := side(e.lin), side(e.rin); !(l == a && r == b || l == b && r == a) {
				rest = append(rest, e)
			}
		}
		for i, t := range tree {
			if t == a || t == b {
				tree[i] = ab
			}
		}
		edges = rest[:0]
		for _, e := range rest {
			if side(append(e.lin[:len(e.lin):len(e.lin)], e.rin...)) != ab {
				edges = append(edges, e)
				continue
			}
			lk, rk, err := p.lowerEdges([]joinEdge{e}, ab, ab)
			if err != nil {
				return nil, err
			}
			pred := &algebra.Cmp{Op: algebra.CmpEq, L: lk[0], R: rk[0]}
			ab.node = &algebra.SelectNode{Input: ab.node, Pred: pred}
			ab.card.rows *= p.estimates().selectivity(pred, ab.card)
		}
	}
	return tree[0], nil
}

// lowerEdges lowers the two sides of each edge against the inputs they
// join.
func (p *Planner) lowerEdges(edges []joinEdge, l, r *joinInput) (lk, rk []algebra.Scalar, err error) {
	for _, e := range edges {
		lo, errL := p.lower(e.l, l.sc)
		ro, errR := p.lower(e.r, r.sc)
		if errL != nil || errR != nil {
			return nil, nil, errJoinCondition
		}
		lk, rk = append(lk, lo), append(rk, ro)
	}
	return lk, rk, nil
}

// join builds one join with the smaller estimate on the hashed side:
// an inner join swaps its inputs to put it on the right, the other
// types, which keep their left rows, set BuildLeft.
func (p *Planner) join(l, r *joinInput, lk, rk []algebra.Scalar, typ algebra.JoinType) *joinInput {
	at := min(l.at, r.at)
	j := &algebra.JoinNode{Type: typ}
	if l.card.rows < r.card.rows {
		if typ == algebra.JoinInner {
			l, r, lk, rk = r, l, rk, lk
		} else {
			j.BuildLeft = true
		}
	}
	j.Left, j.Right, j.LeftKeys, j.RightKeys = l.node, r.node, lk, rk
	out := &joinInput{node: j, sc: l.sc, card: p.estimates().join(l.card, r.card, lk, rk, typ), at: at}
	if typ == algebra.JoinInner || typ == algebra.JoinLeftOuter {
		out.sc = &scope{entries: append([]scopeEntry(nil), l.sc.entries...)}
		for _, e := range r.sc.entries {
			e.offset += l.sc.width()
			out.sc.entries = append(out.sc.entries, e)
		}
	}
	return out
}

// inFromOrder puts a projection over in that lays its columns out table
// by table in FROM order, when the join order chosen left them otherwise.
// Two statement shapes need it, because their result exposes the layout
// under the select list: `SELECT *`, and ORDER BY without aggregation,
// where the sort runs beneath the projection and its input is what a
// cluster shard ships (rewriter.Split) — shard and coordinator must
// agree on that schema whatever order each chose.
func inFromOrder(in *joinInput) *joinInput {
	byFrom := func(a, b scopeEntry) int { return a.from - b.from }
	if slices.IsSortedFunc(in.sc.entries, byFrom) {
		return in
	}
	entries := slices.Clone(in.sc.entries)
	slices.SortFunc(entries, byFrom)
	proj := &algebra.ProjectNode{Input: in.node}
	for i, e := range entries {
		entries[i].offset = len(proj.Exprs)
		for c, col := range e.schema.Cols {
			proj.Exprs = append(proj.Exprs, &algebra.ColRef{Idx: e.offset + c, K: col.Kind})
			proj.Names = append(proj.Names, col.Name)
		}
	}
	return &joinInput{node: proj, sc: &scope{entries: entries}, at: in.at}
}

package sql

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/vtypes"
)

// Planner lowers parsed statements onto the algebra, resolving names
// against the catalog and pushing single-table predicates below joins.
// Join order and hash build sides come from row estimates made of the
// row counts and min/max the catalog's tables already carry (plan_join.go,
// estimate.go); nothing else is cost-based.
type Planner struct {
	Cat *catalog.Catalog

	est *estimator // see estimates
}

// scopeEntry is one table visible in the FROM clause.
type scopeEntry struct {
	alias  string
	table  string
	schema *vtypes.Schema
	offset int // column offset in the join row
	from   int // position of the table in the FROM clause
}

type scope struct{ entries []scopeEntry }

func (s *scope) width() int {
	n := 0
	for _, e := range s.entries {
		n += e.schema.Len()
	}
	return n
}

// resolve finds a column by (qualifier, name).
func (s *scope) resolve(qual, name string) (int, vtypes.Kind, error) {
	found := -1
	var kind vtypes.Kind
	for _, e := range s.entries {
		if qual != "" && e.alias != qual {
			continue
		}
		if ix := e.schema.ColIndex(name); ix >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sql: ambiguous column %q", name)
			}
			found = e.offset + ix
			kind = e.schema.Col(ix).Kind
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sql: unknown column %q", qualName(qual, name))
	}
	return found, kind, nil
}

// matches counts the columns (qualifier, name) could resolve to.
func (s *scope) matches(qual, name string) int {
	n := 0
	for _, e := range s.entries {
		if (qual == "" || e.alias == qual) && e.schema.ColIndex(name) >= 0 {
			n++
		}
	}
	return n
}

func qualName(q, n string) string {
	if q == "" {
		return n
	}
	return q + "." + n
}

// finishPlan completes a planned statement, once (a cached template is
// already finished): what it returns is what every engine executes.
// Two whole-plan rewrites, in this order. Predicate simplification
// first (rewriter.SimplifyPlan: boolean nests flattened, literal-only
// comparisons folded, a comparison's constant put on the right, a Select
// that folds to true dropped), so the cross-compiler's patterns — a
// scan's Skip among them — see the simplified forms. No NOT is left to
// push: lower writes it in negation normal form (algebra.Negate) where
// it meets one. Then column pruning: baseScan lowers every table
// reference full-width, and algebra.PruneColumns narrows each scan to
// the columns the finished plan reads. Between the two, a plan holding a
// join gets the planner's row estimates recorded on its scans, joins and
// aggregates, for EXPLAIN. Single-table conjuncts stay in the Select
// predicate pushdown placed directly above their scan: that Select is
// the scan's filter (algebra.SelectNode), with its Param slots kept, so
// a cached plan template skips row groups with each execution's bound
// values.
func (p *Planner) finishPlan(node algebra.Node) algebra.Node {
	node = rewriter.SimplifyPlan(node)
	if hasJoin(node) {
		p.estimates().card(node)
	}
	return algebra.PruneColumns(node)
}

// planSelect lowers a SELECT without the whole-plan rewrites.
func (p *Planner) planSelect(s *SelectStmt) (algebra.Node, error) {
	if len(s.From) != 1 {
		return nil, fmt.Errorf("sql: exactly one FROM table plus JOIN clauses supported")
	}

	// Split WHERE into conjuncts for pushdown. Conjuncts containing
	// subqueries become joins (or selections over one), never part of a
	// scan's predicate.
	var conjuncts, subqConjuncts []Expr
	for _, c := range splitConjuncts(s.Where) {
		if containsSubquery(c) {
			subqConjuncts = append(subqConjuncts, c)
		} else {
			conjuncts = append(conjuncts, c)
		}
	}

	inputs, conjuncts, subqConjuncts, err := p.fromInputs(s, conjuncts, subqConjuncts)
	if err != nil {
		return nil, err
	}
	cur, err := p.joinTree(s, inputs)
	if err != nil {
		return nil, err
	}

	hasAgg := len(s.GroupBy) > 0 || containsAgg(s.Having)
	star := false
	for _, item := range s.Items {
		star = star || item.Star
		if !item.Star && containsAgg(item.Expr) {
			hasAgg = true
		}
	}
	if star || !hasAgg && len(s.OrderBy) > 0 {
		cur = inFromOrder(cur)
	}
	node, sc := cur.node, cur.sc

	// Remaining WHERE conjuncts above the joins.
	if len(conjuncts) > 0 {
		pred, err := p.lowerConjuncts(conjuncts, sc)
		if err != nil {
			return nil, err
		}
		node = &algebra.SelectNode{Input: node, Pred: pred}
	}

	// Subquery conjuncts no single table could take: `x [NOT] IN
	// (SELECT ...)` becomes a semi/anti join against the subplan; scalar
	// subqueries attach via a constant-key cross join and the conjunct
	// then lowers as an ordinary selection over the widened row.
	if len(subqConjuncts) > 0 {
		subqN := 0
		var rewritten []Expr
		for _, c := range subqConjuncts {
			if in := asInSub(c); in != nil {
				cur, err = p.planInSubquery(&joinInput{node: node, sc: sc, card: p.estimates().card(node)}, in)
				if err != nil {
					return nil, err
				}
				node = cur.node
				continue
			}
			var rc Expr
			node, rc, err = p.attachScalarSubqueries(node, sc, c, &subqN)
			if err != nil {
				return nil, err
			}
			rewritten = append(rewritten, rc)
		}
		if len(rewritten) > 0 {
			pred, err := p.lowerConjuncts(rewritten, sc)
			if err != nil {
				return nil, err
			}
			node = &algebra.SelectNode{Input: node, Pred: pred}
		}
	}

	if hasAgg {
		return p.planAggregate(s, node, sc)
	}
	if s.Having != nil {
		return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
	}

	// Plain projection.
	var exprs []algebra.Scalar
	var names []string
	for _, item := range s.Items {
		if item.Star {
			for _, e := range sc.entries {
				for ci := 0; ci < e.schema.Len(); ci++ {
					exprs = append(exprs, &algebra.ColRef{Idx: e.offset + ci, K: e.schema.Col(ci).Kind})
					names = append(names, e.schema.Col(ci).Name)
				}
			}
			continue
		}
		lo, err := p.lower(item.Expr, sc)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, lo)
		names = append(names, itemName(item))
	}
	// ORDER BY resolves against the pre-projection scope (SQL permits
	// sorting on non-projected columns), falling back to select aliases.
	if node, err = p.sortBy(node, s.OrderBy, sc, exprs, names); err != nil {
		return nil, err
	}
	out := algebra.Node(&algebra.ProjectNode{Input: node, Exprs: exprs, Names: names})
	if s.Limit >= 0 {
		out = &algebra.LimitNode{Input: out, N: s.Limit}
	}
	return out, nil
}

// baseScan builds a full-width scan of a table; finishPlan narrows it.
func (p *Planner) baseScan(tr TableRef, sc *scope) (algebra.Node, error) {
	tbl, _, err := p.Cat.Resolve(tr.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	cols := make([]int, schema.Len())
	for i := range cols {
		cols[i] = i
	}
	sc.entries = append(sc.entries, scopeEntry{alias: tr.Alias, table: tr.Table, schema: schema, offset: sc.width()})
	return &algebra.ScanNode{Table: tr.Table, Cols: cols, Out: schema.Clone()}, nil
}

// pushdown applies conjuncts referencing only `alias` directly above its
// scan, returning the remaining conjuncts.
func (p *Planner) pushdown(node algebra.Node, sc *scope, conjuncts []Expr, alias string) (algebra.Node, []Expr, error) {
	var local, rest []Expr
	for _, c := range conjuncts {
		if onlyReferences(c, alias, sc) {
			local = append(local, c)
		} else {
			rest = append(rest, c)
		}
	}
	if len(local) == 0 {
		return node, rest, nil
	}
	pred, err := p.lowerConjuncts(local, sc)
	if err != nil {
		return nil, nil, err
	}
	return &algebra.SelectNode{Input: node, Pred: pred}, rest, nil
}

func (p *Planner) lowerConjuncts(cs []Expr, sc *scope) (algebra.Scalar, error) {
	var preds []algebra.Scalar
	for _, c := range cs {
		lo, err := p.lower(c, sc)
		if err != nil {
			return nil, err
		}
		preds = append(preds, lo)
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return &algebra.And{Preds: preds}, nil
}

// planAggregate lowers GROUP BY / aggregate queries. Select items,
// HAVING and ORDER BY may be arbitrary expressions over group-by
// expressions and aggregate calls — e.g. `100.0 * SUM(a) / SUM(b)` —
// lowered in two steps: rewrite maps each onto the output of one AggNode,
// the group keys and the distinct aggregates of the whole statement under
// internal names, and each is then lowered as an ordinary expression over
// that output (HAVING a selection, ORDER BY a sort, the select list the
// projection).
func (p *Planner) planAggregate(s *SelectStmt, input algebra.Node, sc *scope) (algebra.Node, error) {
	// The AggNode's columns: the group keys, then the distinct aggregates
	// rewrite finds, named before the node exists ('#' cannot appear in a
	// lexed identifier, so they never collide with user names).
	var groupBy []algebra.Scalar
	var aggs []algebra.AggExpr
	var names []string
	for _, g := range s.GroupBy {
		lo, err := p.lower(g, sc)
		if err != nil {
			return nil, err
		}
		groupBy, names = append(groupBy, lo), append(names, fmt.Sprintf("#g%d", len(names)))
	}

	// rewrite maps an AST expression onto those columns: a subexpression
	// whose lowering is a GROUP BY key's (algebra.Equal: `t.k` is `k`) to
	// the key's, an aggregate call to the aggregates lowerAgg gives it (an
	// AVG to the quotient of its two), each added to aggs unless one of its
	// function over an Equal argument is there (Q1's AVG(l_quantity) reads
	// its SUM(l_quantity)). A select alias (HAVING may name one) stands for
	// its expression; expanding tracks those in flight, so a
	// self-referential alias (`a + 1 AS a`) resolves normally.
	var aggErr error
	expanding := map[string]bool{}
	var rewrite func(e Expr) Expr
	rewrite = func(e Expr) Expr {
		return MapExpr(e, func(e Expr) Expr {
			if lo, err := p.lower(e, sc); err == nil {
				if g := slices.IndexFunc(groupBy, func(g algebra.Scalar) bool { return algebra.Equal(g, lo) }); g >= 0 {
					return &Ident{Name: names[g]}
				}
			}
			switch t := e.(type) {
			case *AggCall:
				axs, err := p.lowerAgg(t, sc)
				if err != nil {
					aggErr = cmp.Or(aggErr, err)
					return t
				}
				cols := make([]Expr, len(axs))
				for k, ax := range axs {
					i := slices.IndexFunc(aggs, func(b algebra.AggExpr) bool { return b.Fn == ax.Fn && algebra.Equal(b.Arg, ax.Arg) })
					if i < 0 {
						i, aggs, names = len(aggs), append(aggs, ax), append(names, fmt.Sprintf("#a%d", len(aggs)))
					}
					cols[k] = &Ident{Name: names[len(groupBy)+i]}
				}
				if t.Fn == "AVG" {
					return &BinExpr{Op: "/", L: cols[0], R: cols[1]}
				}
				return cols[0]
			case *Ident:
				if t.Qualifier == "" && !expanding[t.Name] {
					for _, item := range s.Items {
						if !item.Star && item.Alias == t.Name {
							expanding[t.Name] = true
							out := rewrite(item.Expr)
							delete(expanding, t.Name)
							return out
						}
					}
				}
			}
			return nil
		})
	}
	items := make([]Expr, len(s.Items))
	for i, item := range s.Items {
		if item.Star {
			return nil, fmt.Errorf("sql: * not allowed with GROUP BY")
		}
		items[i] = rewrite(item.Expr)
	}
	having := rewrite(s.Having)
	order := slices.Clone(s.OrderBy)
	for i, o := range order {
		if _, ordinal := o.Expr.(*NumLit); !ordinal {
			order[i].Expr = rewrite(o.Expr)
		}
	}
	if aggErr != nil {
		return nil, aggErr
	}

	input, aggs = hoistShared(input, aggs)
	node := algebra.Node(&algebra.AggNode{Input: input, GroupBy: groupBy, Aggs: aggs, Names: names})
	aggSc := schemaScope(node.Schema())

	// HAVING may compare against an uncorrelated scalar subquery
	// (Q11): attach each one via a constant-key join above the
	// aggregate and substitute its output column into the predicate.
	if having != nil && containsSubquery(having) {
		subqN := 0
		var err error
		node, having, err = p.attachScalarSubqueries(node, aggSc, having, &subqN)
		if err != nil {
			return nil, err
		}
	}

	// HAVING filters the aggregate output before the projection renames
	// and reorders it (equivalent, and it may reference aggregates that
	// the select list drops).
	if having != nil {
		pred, err := p.lower(having, aggSc)
		if err != nil {
			return nil, err
		}
		node = &algebra.SelectNode{Input: node, Pred: pred}
	}

	// Projection expressions over the aggregate output, in select order.
	var exprs []algebra.Scalar
	var outNames []string
	for i, item := range s.Items {
		lo, err := p.lower(items[i], aggSc)
		if err != nil {
			return nil, fmt.Errorf("%w (select items must be built from GROUP BY expressions and aggregates)", err)
		}
		exprs = append(exprs, lo)
		outNames = append(outNames, itemName(item))
	}

	// ORDER BY keys rewrite onto the aggregate output exactly like select
	// items do, and the sort runs between HAVING and the projection (every
	// engine preserves order through a projection) — so keys may be
	// arbitrary expressions over group keys and aggregates, including ones
	// the select list drops.
	node, err := p.sortBy(node, order, aggSc, exprs, outNames)
	if err != nil {
		return nil, err
	}
	node = &algebra.ProjectNode{Input: node, Exprs: exprs, Names: outNames}
	if s.Limit >= 0 {
		node = &algebra.LimitNode{Input: node, N: s.Limit}
	}
	return node, nil
}

// hoistShared computes each maximal subtree that holds an operator and
// occurs more than once across aggs' arguments (whole ones too) once, as a
// column of a Project under the aggregate that passes its input through
// ahead of them, and points every occurrence at its column: X100's Q1 plan,
// whose Project computes discountprice once for two sums. Nothing in a
// CASE arm is counted or hoisted: that would evaluate the arm over rows
// its condition excludes. A subtree holding a Param stays inline.
func hoistShared(input algebra.Node, aggs []algebra.AggExpr) (algebra.Node, []algebra.AggExpr) {
	var visit func(s algebra.Scalar, f func(algebra.Scalar) bool)
	visit = func(s algebra.Scalar, f func(algebra.Scalar) bool) {
		inner := algebra.Operands(s)
		if _, ok := s.(*algebra.Case); ok {
			inner = inner[:1] // the condition, not the arms
		}
		if f(s) {
			for _, o := range inner {
				visit(o, f)
			}
		}
	}
	var seen []algebra.Scalar // every subtree, once per occurrence
	for _, a := range aggs {
		visit(a.Arg, func(s algebra.Scalar) bool { seen = append(seen, s); return true })
	}
	repeated := func(s algebra.Scalar) bool {
		n := 0
		for _, x := range seen {
			if algebra.Equal(x, s) {
				n++
			}
		}
		_, unbound := algebra.BindScalars([]algebra.Scalar{s}, nil) // fails if s holds a Param
		return n > 1 && len(algebra.Operands(s)) > 0 && unbound == nil
	}
	sch := input.Schema()
	proj := &algebra.ProjectNode{Input: input, Exprs: refs(sch)}
	for _, c := range sch.Cols {
		proj.Names = append(proj.Names, c.Name)
	}
	occ := map[algebra.Scalar]*algebra.ColRef{} // occurrence → its column
	for _, a := range aggs {
		visit(a.Arg, func(s algebra.Scalar) bool {
			if !repeated(s) {
				return true
			}
			k := slices.IndexFunc(proj.Exprs, func(x algebra.Scalar) bool { return algebra.Equal(x, s) })
			if k < 0 {
				k = len(proj.Exprs)
				proj.Exprs, proj.Names = append(proj.Exprs, s), append(proj.Names, fmt.Sprintf("#p%d", k-sch.Len()))
			}
			occ[s] = &algebra.ColRef{Idx: k, K: s.Kind()}
			return false
		})
	}
	if len(occ) == 0 {
		return input, aggs
	}
	out := slices.Clone(aggs)
	for i, a := range out {
		if a.Arg != nil {
			// Nothing under an occurrence is replaced, so f sees it unchanged.
			out[i].Arg, _ = algebra.MapScalar(a.Arg, func(s algebra.Scalar) (algebra.Scalar, error) {
				if c := occ[s]; c != nil {
					return c, nil
				}
				return s, nil
			})
		}
	}
	return proj, out
}

// sortBy sorts node by order lowered against sc; exprs (named names) are
// the output columns computed over node. An unsigned integer literal is
// the 1-based position of one, as in SQL-92 and PostgreSQL; a key that
// does not lower but is a bare name is the first one of that name.
func (p *Planner) sortBy(node algebra.Node, order []OrderItem, sc *scope, exprs []algebra.Scalar, names []string) (algebra.Node, error) {
	if len(order) == 0 {
		return node, nil
	}
	keys := make([]algebra.SortKey, len(order))
	for i, o := range order {
		keys[i].Desc = o.Desc
		if n, ok := o.Expr.(*NumLit); ok && !strings.ContainsAny(n.Text, ".eE") {
			k, err := strconv.Atoi(n.Text)
			if err != nil || k < 1 || k > len(exprs) {
				return nil, fmt.Errorf("sql: ORDER BY position %s is not in the select list (1 to %d)", n.Text, len(exprs))
			}
			keys[i].Expr = exprs[k-1]
			continue
		}
		var err error
		if keys[i].Expr, err = p.lower(o.Expr, sc); err != nil {
			j := -1
			if id, ok := o.Expr.(*Ident); ok && id.Qualifier == "" {
				j = slices.Index(names, id.Name)
			}
			if j < 0 {
				return nil, err
			}
			keys[i].Expr = exprs[j]
		}
	}
	return &algebra.SortNode{Input: node, Keys: keys}, nil
}

// schemaScope exposes an output schema as an unqualified scope.
func schemaScope(s *vtypes.Schema) *scope {
	return &scope{entries: []scopeEntry{{alias: "", schema: s}}}
}

// refs returns a reference to each column of s.
func refs(s *vtypes.Schema) []algebra.Scalar {
	out := make([]algebra.Scalar, s.Len())
	for i, c := range s.Cols {
		out[i] = &algebra.ColRef{Idx: i, K: c.Kind}
	}
	return out
}

// lowerAgg lowers an aggregate call to the aggregates it reads. No
// engine computes AVG: AVG(x) reads SUM(x) and COUNT(x), and rewrite
// divides them. The sum of an x that is not DOUBLE is over x cast to
// DOUBLE, as an average of integers need not be one.
func (p *Planner) lowerAgg(a *AggCall, sc *scope) ([]algebra.AggExpr, error) {
	if a.Arg == nil {
		return []algebra.AggExpr{{Fn: algebra.AggCountStar}}, nil
	}
	arg, err := p.lower(a.Arg, sc)
	if err != nil {
		return nil, err
	}
	if a.Fn == "AVG" {
		sum := arg
		if arg.Kind() != vtypes.KindF64 {
			sum = &algebra.Cast{In: arg, To: vtypes.KindF64}
		}
		return []algebra.AggExpr{{Fn: algebra.AggSum, Arg: sum}, {Fn: algebra.AggCount, Arg: arg}}, nil
	}
	fn := map[string]algebra.AggFn{"SUM": algebra.AggSum, "COUNT": algebra.AggCount, "MIN": algebra.AggMin, "MAX": algebra.AggMax}[a.Fn]
	return []algebra.AggExpr{{Fn: fn, Arg: arg}}, nil
}

// lower lowers an AST expression against a scope.
func (p *Planner) lower(e Expr, sc *scope) (algebra.Scalar, error) {
	switch t := e.(type) {
	case *Ident:
		ix, kind, err := sc.resolve(t.Qualifier, t.Name)
		if err != nil {
			return nil, err
		}
		return &algebra.ColRef{Idx: ix, K: kind}, nil
	case *ParamExpr:
		// A placeholder lowers to a typeless Param slot; the surrounding
		// expression resolves its kind (resolveParamPair,
		// lowerBoundScalar) and algebra.BindParams fills it
		// at execution, for SELECT and DML alike.
		return &algebra.Param{Idx: t.Idx}, nil
	case *NumLit:
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", t.Text)
			}
			return &algebra.Lit{Val: vtypes.F64Value(f + 0)}, nil // -0.0 reads as 0 - 0.0 did
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", t.Text)
		}
		return &algebra.Lit{Val: vtypes.I64Value(n)}, nil
	case *StrLit:
		return &algebra.Lit{Val: vtypes.StrValue(t.Val)}, nil
	case *DateLit:
		d, err := vtypes.ParseDate(t.Val)
		if err != nil {
			return nil, err
		}
		return &algebra.Lit{Val: vtypes.DateValue(d)}, nil
	case *BoolLit:
		return &algebra.Lit{Val: vtypes.BoolValue(t.Val)}, nil
	case *NullLit:
		return &algebra.Lit{Val: vtypes.NullValue(vtypes.KindI64)}, nil
	case *BinExpr:
		l, err := p.lower(t.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := p.lower(t.R, sc)
		if err != nil {
			return nil, err
		}
		if l, r, err = resolveParamPair(l, r); err != nil {
			return nil, err
		}
		switch t.Op {
		case "AND":
			return &algebra.And{Preds: []algebra.Scalar{l, r}}, nil
		case "OR":
			return &algebra.Or{Preds: []algebra.Scalar{l, r}}, nil
		case "+", "-", "*", "/":
			op := map[string]algebra.ArithOp{"+": algebra.OpAdd, "-": algebra.OpSub, "*": algebra.OpMul, "/": algebra.OpDiv}[t.Op]
			// Widen int literals beside float columns.
			l, r = widenPair(l, r)
			return algebra.NewArith(op, l, r)
		default:
			op := map[string]algebra.CmpOp{"=": algebra.CmpEq, "<>": algebra.CmpNe, "<": algebra.CmpLt, "<=": algebra.CmpLe, ">": algebra.CmpGt, ">=": algebra.CmpGe}[t.Op]
			l, r = widenPair(l, r)
			return &algebra.Cmp{Op: op, L: l, R: r}, nil
		}
	case *NotExpr:
		in, err := p.lower(t.In, sc)
		if err != nil {
			return nil, err
		}
		return algebra.Negate(in), nil
	case *BetweenExpr:
		in, err := p.lower(t.In, sc)
		if err != nil {
			return nil, err
		}
		lo, err := p.lowerBoundScalar(t.Lo, sc, in.Kind())
		if err != nil {
			return nil, err
		}
		hi, err := p.lowerBoundScalar(t.Hi, sc, in.Kind())
		if err != nil {
			return nil, err
		}
		// A range is its two bounds, whatever they are: literals,
		// placeholder slots, columns, aggregate outputs. The compiler
		// fuses a column's closed bounds into one between pass
		// (xcompile.compiler.and).
		return &algebra.And{Preds: []algebra.Scalar{
			&algebra.Cmp{Op: algebra.CmpGe, L: in, R: lo},
			&algebra.Cmp{Op: algebra.CmpLe, L: in, R: hi},
		}}, nil
	case *InExpr:
		in, err := p.lower(t.In, sc)
		if err != nil {
			return nil, err
		}
		members := make([]algebra.Scalar, len(t.List))
		allLit := true
		for i, le := range t.List {
			m, err := p.lowerBoundScalar(le, sc, in.Kind())
			if err != nil {
				return nil, err
			}
			members[i] = m
			if _, ok := m.(*algebra.Lit); !ok {
				allLit = false
			}
		}
		if allLit {
			list := make([]vtypes.Value, len(members))
			for i, m := range members {
				list[i] = m.(*algebra.Lit).Val
			}
			return &algebra.In{In: in, List: list}, nil
		}
		// Non-literal members (placeholder slots, columns, aggregates):
		// decompose into an OR of equalities so each one binds or
		// evaluates positionally.
		preds := make([]algebra.Scalar, len(members))
		for i, m := range members {
			preds[i] = &algebra.Cmp{Op: algebra.CmpEq, L: in, R: m}
		}
		if len(preds) == 1 {
			return preds[0], nil
		}
		return &algebra.Or{Preds: preds}, nil
	case *LikeExpr:
		in, err := p.lower(t.In, sc)
		if err != nil {
			return nil, err
		}
		return &algebra.Like{In: in, Pattern: t.Pattern, Negate: t.Negate}, nil
	case *IsNullExpr:
		in, err := p.lower(t.In, sc)
		if err != nil {
			return nil, err
		}
		return &algebra.IsNull{In: in, Negate: t.Negate}, nil
	case *CaseExpr:
		cond, err := p.lower(t.Cond, sc)
		if err != nil {
			return nil, err
		}
		then, err := p.lower(t.Then, sc)
		if err != nil {
			return nil, err
		}
		el, err := p.lower(t.Else, sc)
		if err != nil {
			return nil, err
		}
		// Widen int literal arms beside float arms so both arms share a
		// storage class (`THEN price ELSE 0`).
		then, el = widenPair(then, el)
		return algebra.NewCase(cond, then, el)
	case *FuncCall:
		arg, err := p.lower(t.Arg, sc)
		if err != nil {
			return nil, err
		}
		if t.Fn == "YEAR" {
			return &algebra.YearOf{In: arg}, nil
		}
		return nil, fmt.Errorf("sql: unknown function %q", t.Fn)
	case *AggCall:
		return nil, fmt.Errorf("sql: aggregate %s not allowed here", t.Fn)
	case *SubqueryExpr:
		return nil, fmt.Errorf("sql: scalar subquery not supported in this position")
	case *InSubExpr:
		return nil, fmt.Errorf("sql: IN (SELECT ...) is only supported as a top-level WHERE conjunct")
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

// resolveParamPair types unresolved parameter slots from their sibling
// operand: in `k = ?` the placeholder adopts k's kind, so binding can
// coerce the argument and the kernels see one storage class. Two
// placeholders compared with each other have no kind source and fail.
func resolveParamPair(l, r algebra.Scalar) (algebra.Scalar, algebra.Scalar, error) {
	lp, lok := l.(*algebra.Param)
	rp, rok := r.(*algebra.Param)
	lu := lok && lp.K == vtypes.KindInvalid
	ru := rok && rp.K == vtypes.KindInvalid
	switch {
	case lu && ru:
		return nil, nil, fmt.Errorf("sql: cannot infer types of $%d and $%d compared with each other", lp.Idx, rp.Idx)
	case lu:
		l = &algebra.Param{Idx: lp.Idx, K: r.Kind()}
	case ru:
		r = &algebra.Param{Idx: rp.Idx, K: l.Kind()}
	}
	return l, r, nil
}

// lowerBoundScalar lowers a BETWEEN bound, IN member or SET value.
// Placeholder slots adopt the wanted kind; literals coerce to it; other
// scalars — columns, aggregate outputs — pass through for the caller's
// comparison decomposition.
func (p *Planner) lowerBoundScalar(e Expr, sc *scope, want vtypes.Kind) (algebra.Scalar, error) {
	lo, err := p.lower(e, sc)
	if err != nil {
		return nil, err
	}
	switch t := lo.(type) {
	case *algebra.Param:
		if t.K == vtypes.KindInvalid {
			return &algebra.Param{Idx: t.Idx, K: want}, nil
		}
	case *algebra.Lit:
		v, err := algebra.CoerceValue(t.Val, want)
		if err != nil {
			return nil, fmt.Errorf("sql: literal %w", err)
		}
		return &algebra.Lit{Val: v}, nil
	}
	return lo, nil
}

// foldLit evaluates literal-only +, - and *, so that `-5` — which the
// parser reads as 0 - 5 — is a literal where one is required. Division
// and NULL operands are left to the engine's own semantics.
func foldLit(s algebra.Scalar) (vtypes.Value, bool) {
	switch t := s.(type) {
	case *algebra.Lit:
		return t.Val, true
	case *algebra.Arith:
		l, lok := foldLit(t.L)
		r, rok := foldLit(t.R)
		if !lok || !rok || l.Null || r.Null || t.Op == algebra.OpDiv {
			return vtypes.Value{}, false
		}
		if t.K == vtypes.KindF64 {
			a, b := l.AsFloat(), r.AsFloat()
			switch t.Op {
			case algebra.OpAdd:
				return vtypes.F64Value(a + b), true
			case algebra.OpSub:
				return vtypes.F64Value(a - b), true
			}
			return vtypes.F64Value(a * b), true
		}
		a, b := l.I64, r.I64 // integers and dates (epoch days)
		switch t.Op {
		case algebra.OpAdd:
			a += b
		case algebra.OpSub:
			a -= b
		default:
			a *= b
		}
		return vtypes.Value{Kind: t.K, I64: a}, true
	}
	return vtypes.Value{}, false
}

// widenPair widens int literals next to float expressions so kernels
// compare within one storage class.
func widenPair(l, r algebra.Scalar) (algebra.Scalar, algebra.Scalar) {
	if l.Kind().StorageClass() == vtypes.ClassF64 && r.Kind().StorageClass() == vtypes.ClassI64 {
		if lit, ok := r.(*algebra.Lit); ok {
			return l, &algebra.Lit{Val: vtypes.F64Value(float64(lit.Val.I64))}
		}
	}
	if r.Kind().StorageClass() == vtypes.ClassF64 && l.Kind().StorageClass() == vtypes.ClassI64 {
		if lit, ok := l.(*algebra.Lit); ok {
			return &algebra.Lit{Val: vtypes.F64Value(float64(lit.Val.I64))}, r
		}
	}
	return l, r
}

// splitConjuncts flattens a WHERE tree into ANDed conjuncts.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// onlyReferences reports whether every column in e resolves inside the
// single alias — the test for pushing a WHERE conjunct below a join. A
// column that resolves in another table, or that does not resolve in the
// scope at all (it belongs to a table joined later), blocks the push.
func onlyReferences(e Expr, alias string, sc *scope) bool {
	ok := true
	walkIdents(e, func(id *Ident) {
		if id.Qualifier != "" {
			if id.Qualifier != alias {
				ok = false
			}
			return
		}
		resolved := false
		for _, ent := range sc.entries {
			if ent.schema.ColIndex(id.Name) >= 0 {
				resolved = true
				if ent.alias != alias {
					ok = false
				}
			}
		}
		if !resolved {
			ok = false
		}
	})
	return ok
}

// walkExprs visits e and every sub-expression, including aggregate
// arguments and IN-list members. A nil e is a no-op. The visitor sees a
// subquery node but not its internals, which belong to another scope;
// one that cares descends into t.Sel itself.
func walkExprs(e Expr, fn func(Expr)) {
	MapExpr(e, func(x Expr) Expr {
		fn(x)
		return nil
	})
}

func walkIdents(e Expr, fn func(*Ident)) {
	walkExprs(e, func(x Expr) {
		if id, ok := x.(*Ident); ok {
			fn(id)
		}
	})
}

// containsAgg reports whether an expression contains an aggregate call.
func containsAgg(e Expr) bool {
	found := false
	walkExprs(e, func(x Expr) {
		if _, ok := x.(*AggCall); ok {
			found = true
		}
	})
	return found
}

// containsSubquery reports whether an expression contains a subquery
// node anywhere (the subquery's own internals are not walked, but the
// node itself is seen).
func containsSubquery(e Expr) bool {
	found := false
	walkExprs(e, func(x Expr) {
		switch x.(type) {
		case *SubqueryExpr, *InSubExpr:
			found = true
		}
	})
	return found
}

// itemName derives the output column name of a select item.
func itemName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if id, ok := item.Expr.(*Ident); ok {
		return id.Name
	}
	if ag, ok := item.Expr.(*AggCall); ok {
		return strings.ToLower(ag.Fn)
	}
	return "expr"
}

// PlanDML plans the read side of an UPDATE or DELETE as an ordinary
// query over the target table, finished like one (see finishPlan):
//
//	Project[$rid, SET exprs…](Select WHERE (Scan read-cols rowid))
//
// One output row per affected row: the RID its PDT entry addresses and,
// for UPDATE, the value each SET expression takes on the row's
// pre-image (so `SET a = b, b = a` swaps). The scan reads only the
// columns WHERE and SET reference, and the Select over it is its filter,
// so a write prunes row groups exactly like the equivalent SELECT. targets[i] is the table column SET item i assigns (plan
// column 1+i); it is nil for DELETE. SET items are resolved and
// kind-checked here, once, not per matching row: a bare placeholder or
// literal coerces to the target column's kind, any other expression
// must have a kind algebra.CoerceValue accepts for it.
func (p *Planner) PlanDML(table string, where Expr, setCols []string, setExprs []Expr) (algebra.Node, []int, error) {
	tbl, _, err := p.Cat.Resolve(table)
	if err != nil {
		return nil, nil, err
	}
	full := tbl.Schema()
	var targets []int
	for _, name := range setCols {
		ix := full.ColIndex(name)
		if ix < 0 {
			return nil, nil, fmt.Errorf("sql: unknown column %q", name)
		}
		targets = append(targets, ix)
	}
	used := make([]bool, full.Len())
	mark := func(id *Ident) {
		if ix := full.ColIndex(id.Name); ix >= 0 {
			used[ix] = true
		}
	}
	walkIdents(where, mark)
	for _, e := range setExprs {
		walkIdents(e, mark)
	}
	var cols []int
	for ix, u := range used {
		if u {
			cols = append(cols, ix)
		}
	}
	read := full.Project(cols)
	sc := schemaScope(read)
	var node algebra.Node = &algebra.ScanNode{
		Table: table,
		Cols:  cols,
		Out:   &vtypes.Schema{Cols: append(read.Clone().Cols, vtypes.RowIDColumn)},
		RowID: true,
	}
	if where != nil {
		pred, err := p.lower(where, sc)
		if err != nil {
			return nil, nil, err
		}
		node = &algebra.SelectNode{Input: node, Pred: pred}
	}
	exprs := []algebra.Scalar{&algebra.ColRef{Idx: len(cols), K: vtypes.RowIDColumn.Kind}}
	names := []string{vtypes.RowIDColumn.Name}
	for i, e := range setExprs {
		col := full.Col(targets[i])
		lo, err := p.lowerBoundScalar(e, sc, col.Kind)
		if err != nil {
			return nil, nil, err
		}
		if !algebra.Coercible(lo.Kind(), col.Kind) {
			return nil, nil, fmt.Errorf("sql: cannot assign %v to column %q (%v)", lo.Kind(), col.Name, col.Kind)
		}
		exprs = append(exprs, lo)
		names = append(names, col.Name)
	}
	return p.finishPlan(&algebra.ProjectNode{Input: node, Exprs: exprs, Names: names}), targets, nil
}

// PlanInsert lowers an INSERT's VALUES cells against the target's
// columns, once: each cell becomes a scalar over literals and placeholder
// slots (a bare slot adopts its column's kind), which FoldLiteral
// evaluates after algebra.BindScalars has filled the slots.
func (p *Planner) PlanInsert(s *InsertStmt) ([][]algebra.Scalar, error) {
	tbl, _, err := p.Cat.Resolve(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	values := make([][]algebra.Scalar, len(s.Rows))
	for r, row := range s.Rows {
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("sql: INSERT arity %d != %d", len(row), schema.Len())
		}
		values[r] = make([]algebra.Scalar, len(row))
		for c, e := range row {
			if values[r][c], err = p.lowerBoundScalar(e, &scope{}, schema.Col(c).Kind); err != nil {
				return nil, err
			}
		}
	}
	return values, nil
}

// FoldLiteral evaluates a literal-only scalar to a value of the wanted
// kind.
func FoldLiteral(s algebra.Scalar, want vtypes.Kind) (vtypes.Value, error) {
	lit, ok := foldLit(s)
	if !ok {
		return vtypes.Value{}, fmt.Errorf("sql: literal required")
	}
	v, err := algebra.CoerceValue(lit, want)
	if err != nil {
		return vtypes.Value{}, fmt.Errorf("sql: literal %w", err)
	}
	return v, nil
}

// LowerLiteral folds a literal-only expression to a value of the wanted
// kind (the coordinator's routing of INSERT VALUES).
func (p *Planner) LowerLiteral(e Expr, want vtypes.Kind) (vtypes.Value, error) {
	lo, err := p.lowerBoundScalar(e, &scope{}, want)
	if err != nil {
		return vtypes.Value{}, err
	}
	return FoldLiteral(lo, want)
}

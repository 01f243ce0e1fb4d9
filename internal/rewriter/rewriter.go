// Package rewriter is the rule-based plan rewriting layer of §I-B. In
// the product it is implemented with the Tom pattern-matching tool: a
// set of rules run by one tree-matching engine. Here a rule is a Go
// pattern match on one node, and the engine is algebra.MapNode (plans)
// and algebra.MapScalar (expressions). Two rule families are implemented:
//
//   - Simplification: flatten boolean nests, fold literal-only
//     comparisons, put a comparison's constant on the right — the
//     normalizations that make the cross-compiler's fast-path patterns
//     fire and give one range one plan. A plan holds no NOT to simplify:
//     the planner lowers predicates in negation normal form
//     (algebra.Negate).
//   - Parallelization and distribution: one rule (Split) cuts a plan
//     into the half that runs on every partition of the input and the
//     half that recombines the partial results above an exchange
//     union. Parallelize applies it to row-group ranges of one table on
//     this node, the Volcano-style multi-core rewrite; Distribute
//     applies it to the shards of a cluster, once one placement rule
//     over the plan (place) has shown that the shards' halves union to
//     the answer. Every aggregate function in a plan (SUM, COUNT, MIN,
//     MAX) recombines from partials: the planner writes any other in
//     terms of these.
package rewriter

import (
	"errors"
	"fmt"
	"slices"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/vtypes"
)

// simplifyNode applies the simplification rules to one expression node
// whose operands are already simplified. SimplifyPlan runs it bottom-up
// over every expression, wherever the boolean sits: a WHERE conjunct and
// the same expression as a CASE condition inside an aggregate argument
// simplify to the same tree.
func simplifyNode(s algebra.Scalar) algebra.Scalar {
	switch t := s.(type) {
	case *algebra.And:
		var flat []algebra.Scalar
		for _, p := range t.Preds {
			if inner, ok := p.(*algebra.And); ok {
				flat = append(flat, inner.Preds...)
				continue
			}
			if isBoolLit(p, true) {
				continue // AND true
			}
			flat = append(flat, p)
		}
		if len(flat) == 1 {
			return flat[0]
		}
		if len(flat) == 0 {
			return &algebra.Lit{Val: vtypes.BoolValue(true)}
		}
		return &algebra.And{Preds: flat}
	case *algebra.Or:
		var flat []algebra.Scalar
		for _, p := range t.Preds {
			if inner, ok := p.(*algebra.Or); ok {
				flat = append(flat, inner.Preds...)
				continue
			}
			if isBoolLit(p, false) {
				continue // OR false
			}
			flat = append(flat, p)
		}
		if len(flat) == 1 {
			return flat[0]
		}
		if len(flat) == 0 {
			return &algebra.Lit{Val: vtypes.BoolValue(false)}
		}
		return &algebra.Or{Preds: flat}
	case *algebra.Cmp:
		// A comparison with a NULL literal is never true, which no boolean
		// literal says: it stays for the engines, which answer it so.
		if l, ok := t.L.(*algebra.Lit); ok && !l.Val.Null {
			if r, ok2 := t.R.(*algebra.Lit); ok2 && !r.Val.Null {
				cmp := l.Val.Compare(r.Val)
				var b bool
				switch t.Op {
				case algebra.CmpEq:
					b = cmp == 0
				case algebra.CmpNe:
					b = cmp != 0
				case algebra.CmpLt:
					b = cmp < 0
				case algebra.CmpLe:
					b = cmp <= 0
				case algebra.CmpGt:
					b = cmp > 0
				default:
					b = cmp >= 0
				}
				return &algebra.Lit{Val: vtypes.BoolValue(b)}
			}
		}
		if constant(t.L) && !constant(t.R) {
			return &algebra.Cmp{Op: t.Op.Flip(), L: t.R, R: t.L} // `5 < x` is `x > 5`
		}
		return t
	default:
		return s
	}
}

// constant reports whether s is a literal or a parameter slot.
func constant(s algebra.Scalar) bool {
	switch s.(type) {
	case *algebra.Lit, *algebra.Param:
		return true
	}
	return false
}

// isBoolLit reports whether s is the boolean literal b.
func isBoolLit(s algebra.Scalar, b bool) bool {
	lit, ok := s.(*algebra.Lit)
	return ok && lit.Val.Kind == vtypes.KindBool && !lit.Val.Null && lit.Val.B == b
}

// SimplifyPlan applies simplifyNode to every scalar in a plan — predicates,
// projections, aggregate arguments, keys — and drops a Select whose
// predicate folds to true. It is idempotent: the planner runs it first
// when it finishes a plan (sql.Planner.finishPlan), before the estimates
// and column pruning.
func SimplifyPlan(n algebra.Node) algebra.Node {
	out, err := algebra.MapNode(n,
		func(s algebra.Scalar) (algebra.Scalar, error) { return simplifyNode(s), nil },
		func(n algebra.Node) (algebra.Node, error) {
			if sel, ok := n.(*algebra.SelectNode); ok && isBoolLit(sel.Pred, true) {
				return sel.Input, nil
			}
			return n, nil
		})
	if err != nil {
		return n // a node the traversal does not know: the plan stays as written
	}
	return out
}

// Split cuts a plan where partial results recombine — the one place
// that decides how work divides over partitions of the input, whether
// the partitions are row-group ranges on this node (Parallelize) or
// shards of a cluster (Distribute). It walks the spine
// (Limit/Project/Sort/Select) from the root. Everything beneath the cut
// distributes over a union of partitions; below additionally carries
// the partial form of the node at the cut, and above(leaf) rebuilds the
// spine over leaf, a node producing the union of every partition's
// below:
//
//   - the spine ends in an aggregate: below is the Partial aggregate,
//     above re-aggregates it (finalAgg);
//   - otherwise the cut is the lowest Sort or Limit. A Limit is applied
//     on both sides; a Sort only above, unless a Limit sits over it with
//     nothing but projections between, when below is the partition's
//     top-N, Limit(Sort(input));
//   - with none of these the whole plan is below and above is the
//     identity.
func Split(n algebra.Node) (below algebra.Node, above func(leaf algebra.Node) algebra.Node) {
	var spine []algebra.Node
	cut := -1
	for cur := n; ; cur = cur.Children()[0] {
		switch t := cur.(type) {
		case *algebra.LimitNode, *algebra.SortNode:
			cut = len(spine)
		case *algebra.ProjectNode, *algebra.SelectNode:
		case *algebra.AggNode:
			partial := *t
			partial.Partial = true
			return &partial, func(leaf algebra.Node) algebra.Node { return rebase(spine, finalAgg(t, leaf)) }
		default:
			if cut < 0 {
				return n, func(leaf algebra.Node) algebra.Node { return leaf }
			}
			below = spine[cut]
			if sort, ok := below.(*algebra.SortNode); ok {
				below = sort.Input
				if limit := limitOver(spine[:cut]); limit != nil {
					below = &algebra.LimitNode{Input: &algebra.SortNode{Input: below, Keys: sort.Keys}, N: limit.N}
				}
			}
			return below, func(leaf algebra.Node) algebra.Node { return rebase(spine[:cut+1], leaf) }
		}
		spine = append(spine, cur)
	}
}

// limitOver returns the Limit that bounds the output of the node under
// spine: the nearest one above it with only projections between.
func limitOver(spine []algebra.Node) *algebra.LimitNode {
	for i := len(spine) - 1; i >= 0; i-- {
		switch t := spine[i].(type) {
		case *algebra.LimitNode:
			return t
		case *algebra.ProjectNode:
		default:
			return nil
		}
	}
	return nil
}

// rebase rebuilds a chain of single-input nodes (root first) over a
// new input.
func rebase(spine []algebra.Node, in algebra.Node) algebra.Node {
	for i := len(spine) - 1; i >= 0; i-- {
		below := in
		in, _ = algebra.MapChildren(spine[i], func(algebra.Node) (algebra.Node, error) { return below, nil })
	}
	return in
}

// finalAgg recombines the union of a's partial results: it regroups on
// the partial group columns and folds SUM→SUM, COUNT→SUM, MIN→MIN,
// MAX→MAX. When a is itself a partial (a shard's half of a distributed
// aggregate, split again over that shard's row groups) the final stays
// Partial, so a shard whose every partition was empty still sends the
// coordinator no row.
func finalAgg(a *algebra.AggNode, leaf algebra.Node) *algebra.AggNode {
	partial := leaf.Schema()
	ng := len(a.GroupBy)
	groups := make([]algebra.Scalar, ng)
	for g := range groups {
		groups[g] = &algebra.ColRef{Idx: g, K: partial.Col(g).Kind}
	}
	aggs := make([]algebra.AggExpr, len(a.Aggs))
	for i, ag := range a.Aggs {
		fn := ag.Fn
		if fn == algebra.AggCount || fn == algebra.AggCountStar {
			fn = algebra.AggSum
		}
		aggs[i] = algebra.AggExpr{Fn: fn, Arg: &algebra.ColRef{Idx: ng + i, K: partial.Col(ng + i).Kind}}
	}
	return &algebra.AggNode{Input: leaf, GroupBy: groups, Aggs: aggs, Names: a.Names, Partial: a.Partial}
}

// Distribute rewrites a plan for a cluster of shards that each hold a
// horizontal partition of the plan's sharded tables (and all of the
// replicated ones): every shard runs Split's below — it plans the same
// statement and applies the same rule — and the coordinator runs above
// over one remote leaf per shard. shardKey reports whether a table is
// sharded and on which column. The plan is cut only if place shows that
// the shards' belows union to below over all the data; else the error
// says why. A plan over replicated tables alone returns unchanged and
// not sharded: any one node answers it whole.
//
// A shard plans from its own data, so it may order a run of inner joins
// differently from the plan checked here. The verdict does not depend on
// that order: key columns pass through an inner join from both inputs.
func Distribute(n algebra.Node, shards int, shardKey func(table string) (keyCol string, sharded bool)) (plan algebra.Node, sharded bool, err error) {
	below, above := Split(n)
	in := below
	switch below.(type) {
	case *algebra.AggNode, *algebra.LimitNode:
		in = below.Children()[0] // the head Split put there recombines by construction
	}
	p, err := place(in, shardKey)
	if err != nil || !p.sharded {
		return n, false, err
	}
	leaves := make([]algebra.Node, shards)
	for i := range leaves {
		leaves[i] = &algebra.RemoteNode{Shard: i, Out: below.Schema()}
	}
	return above(&algebra.UnionAllNode{Inputs: leaves}), true, nil
}

// placement is where a plan node's rows live: on every shard
// (replicated) or each on exactly one (sharded), keys being the output
// columns that hold a shard key.
type placement struct {
	sharded bool
	keys    []int
}

// place is the placement rule, bottom-up: a node over sharded rows is
// accepted only if its outputs on each shard's partition union to its
// output over all the data (docs/ARCHITECTURE.md, "Placement"). Any
// other node over sharded rows, such as a LIMIT below the head, is
// refused.
func place(n algebra.Node, shardKey func(string) (string, bool)) (placement, error) {
	if scan, ok := n.(*algebra.ScanNode); ok {
		key, sharded := shardKey(scan.Table)
		p := placement{sharded: sharded}
		for i, c := range scan.Out.Cols {
			if sharded && c.Name == key {
				p.keys = append(p.keys, i)
			}
		}
		return p, nil
	}
	var in []placement
	for _, c := range n.Children() {
		p, err := place(c, shardKey)
		if err != nil {
			return p, err
		}
		in = append(in, p)
	}
	if j, ok := n.(*algebra.JoinNode); ok {
		return placeJoin(j, in[0], in[1])
	}
	if !slices.ContainsFunc(in, func(p placement) bool { return p.sharded }) {
		return placement{}, nil
	}
	switch t := n.(type) {
	case *algebra.SelectNode, *algebra.SortNode:
		return in[0], nil
	case *algebra.ProjectNode:
		return placement{true, keyRefs(t.Exprs, in[0].keys)}, nil
	case *algebra.UnionAllNode:
		keys := in[0].keys
		for _, p := range in {
			if !p.sharded {
				return placement{}, errors.New("a UNION of sharded and replicated inputs")
			}
			keys = slices.DeleteFunc(keys, func(k int) bool { return !slices.Contains(p.keys, k) })
		}
		return placement{true, keys}, nil
	case *algebra.AggNode:
		if keys := keyRefs(t.GroupBy, in[0].keys); len(keys) > 0 {
			return placement{true, keys}, nil
		}
		return placement{}, errors.New("an aggregate over a sharded table inside the statement must group by its shard key")
	}
	return placement{}, fmt.Errorf("cannot place %T over sharded rows", n)
}

// placeJoin places a join. A left outer, semi or anti join keeps its
// left input's rows, so its replicated input may only be the right. Two
// sharded inputs must equate a shard key of each. Key columns pass
// through from both inputs of an inner join, from the left otherwise (a
// left outer join's right columns are NULL where no row matched).
func placeJoin(j *algebra.JoinNode, l, r placement) (placement, error) {
	out := placement{l.sharded || r.sharded, l.keys}
	if j.Type == algebra.JoinInner {
		for _, k := range r.keys {
			out.keys = append(out.keys, j.Left.Schema().Len()+k)
		}
	}
	lk, rk := keyRefs(j.LeftKeys, l.keys), keyRefs(j.RightKeys, r.keys)
	switch {
	case l.sharded && r.sharded && !slices.ContainsFunc(lk, func(i int) bool { return slices.Contains(rk, i) }):
		return placement{}, errors.New("a join of two sharded inputs must equate their shard keys")
	case !l.sharded && r.sharded && j.Type != algebra.JoinInner:
		return placement{}, fmt.Errorf("a %s join would keep its replicated left input's rows on every shard", j.Type)
	}
	return out, nil
}

// keyRefs returns the positions of exprs that are a bare reference to
// one of keys.
func keyRefs(exprs []algebra.Scalar, keys []int) (out []int) {
	for i, e := range exprs {
		if c, ok := e.(*algebra.ColRef); ok && slices.Contains(keys, c.Idx) {
			out = append(out, i)
		}
	}
	return out
}

// Parallelize rewrites a plan for multi-core execution: Split's below,
// when it is a pipeline over one scan, is cloned per partition of the
// table's row groups, and above runs over the exchange union of the
// clones. Anything else — a join input, a single-group table — returns
// unchanged.
func Parallelize(n algebra.Node, cat *catalog.Catalog, workers int) algebra.Node {
	if workers <= 1 {
		return n
	}
	below, above := Split(n)
	pipe, scan := pipeline(below)
	if scan == nil {
		return n
	}
	tbl, _, err := cat.Resolve(scan.Table)
	if err != nil || scan.PartHi > 0 {
		return n
	}
	parts := core.PartitionGroups(tbl.Groups(), workers)
	if len(parts) < 2 {
		return n
	}
	inputs := make([]algebra.Node, len(parts))
	for i, p := range parts {
		clone := *scan
		clone.PartLo, clone.PartHi = p[0], p[1]
		inputs[i] = rebase(pipe, &clone)
	}
	return above(&algebra.UnionAllNode{Inputs: inputs})
}

// pipeline returns the chain of single-input nodes (root first) from
// below down to its scan, or a nil scan when below is not a pipeline
// over one scan. Beneath Split's partial head (a Partial aggregate, a
// top-N or a Limit) only Select and Project may appear: they are what
// distributes over a union of scan partitions.
func pipeline(below algebra.Node) (pipe []algebra.Node, scan *algebra.ScanNode) {
	head := true
	for cur := below; ; cur = cur.Children()[0] {
		switch t := cur.(type) {
		case *algebra.ScanNode:
			return pipe, t
		case *algebra.SelectNode, *algebra.ProjectNode:
			head = false
		case *algebra.LimitNode, *algebra.SortNode:
			if !head {
				return nil, nil
			}
		case *algebra.AggNode:
			if !head || !t.Partial {
				return nil, nil
			}
			head = false
		default:
			return nil, nil
		}
		pipe = append(pipe, cur)
	}
}

package algebra

import "vectorwise/internal/vtypes"

// Column pruning: the planner's required-columns pass. The planner
// lowers every table reference to a full-width scan; this pass walks the
// finished plan top-down, each node telling its input which of the
// input's output positions it reads, and narrows every ScanNode to the
// columns something above it (its filter, the Select directly over it,
// included) references — the column store's premise that a query
// touches only the columns it names. Every ColRef above a narrowed input
// is renumbered.
//
// No node is ever placed between a scan and its Select, so the
// Scan[→Select][→Project] pipelines the parallel rewriter matches keep
// their shape. A join or sort input that is not a bare scan and still
// carries columns nothing above reads (a lower join's keys, a filtered
// scan's filter-only columns) gets one pure-ColRef ProjectNode
// under the join or sort: the vectorized Project passes column
// references through by pointer, so it costs nothing, and the
// materializing operator above it stores only live columns.

// PruneColumns returns n with every scan narrowed to the columns the
// plan reads. The root's schema is unchanged. Nodes are rebuilt, never
// mutated.
func PruneColumns(n Node) Node {
	need := make([]bool, n.Schema().Len())
	for i := range need {
		need[i] = true
	}
	var p pruner
	out, _ := p.prune(n, need)
	if p.unknown {
		return n
	}
	return out
}

// pruner carries the one thing that can stop the pass: a scalar the
// traversal does not know, whose column references it therefore cannot
// see. The plan is then left as it was.
type pruner struct{ unknown bool }

// prune rewrites n given which of its output positions its parent
// reads. It returns the rewritten node and, per old output position, the
// position in the rewritten node's output (-1: dropped). The rewritten
// node may still carry columns the parent did not ask for (a scan's
// filter-only columns, a join's keys); exact drops those where it pays.
func (p *pruner) prune(n Node, need []bool) (Node, []int) {
	switch t := n.(type) {
	case *ScanNode:
		return p.pruneScan(t, need)
	case *SelectNode:
		in, m := p.prune(t.Input, p.withRefs(append([]bool(nil), need...), t.Pred))
		return &SelectNode{Input: in, Pred: renumber(t.Pred, m)}, m
	case *ProjectNode:
		// Only the expressions the parent reads are computed (one is kept
		// when it reads none, so batches still carry a row count).
		exprs, names := make([]Scalar, 0, len(t.Exprs)), make([]string, 0, len(t.Exprs))
		m := make([]int, len(t.Exprs))
		for i, e := range t.Exprs {
			m[i] = -1
			if need[i] || (i == len(m)-1 && len(exprs) == 0) {
				m[i] = len(exprs)
				exprs, names = append(exprs, e), append(names, t.Names[i])
			}
		}
		in, mi := p.prune(t.Input, p.withRefs(make([]bool, t.Input.Schema().Len()), exprs...))
		return &ProjectNode{Input: in, Exprs: renumberAll(exprs, mi), Names: names}, m
	case *AggNode:
		childNeed := p.withRefs(make([]bool, t.Input.Schema().Len()), t.GroupBy...)
		for _, a := range t.Aggs {
			if a.Arg != nil {
				p.withRefs(childNeed, a.Arg)
			}
		}
		in, m := p.prune(t.Input, childNeed)
		aggs := make([]AggExpr, len(t.Aggs))
		for i, a := range t.Aggs {
			aggs[i] = a
			if a.Arg != nil {
				aggs[i].Arg = renumber(a.Arg, m)
			}
		}
		out := *t
		out.Input, out.GroupBy, out.Aggs = in, renumberAll(t.GroupBy, m), aggs
		return &out, identity(len(t.GroupBy) + len(t.Aggs))
	case *JoinNode:
		lw := t.Left.Schema().Len()
		needL := p.withRefs(append([]bool(nil), need[:lw]...), t.LeftKeys...)
		needR := make([]bool, t.Right.Schema().Len())
		if t.Type == JoinInner || t.Type == JoinLeftOuter {
			copy(needR, need[lw:])
		}
		p.withRefs(needR, t.RightKeys...)
		l, ml := p.exactUnlessScan(t.Left, needL)
		r, mr := p.exactUnlessScan(t.Right, needR)
		out := *t
		out.Left, out.Right = l, r
		out.LeftKeys, out.RightKeys = renumberAll(t.LeftKeys, ml), renumberAll(t.RightKeys, mr)
		m := ml
		if t.Type == JoinInner || t.Type == JoinLeftOuter {
			nlw := l.Schema().Len()
			m = append([]int(nil), ml...)
			for _, pos := range mr {
				if pos >= 0 {
					pos += nlw
				}
				m = append(m, pos)
			}
		}
		return &out, m
	case *SortNode:
		childNeed := append([]bool(nil), need...)
		for _, k := range t.Keys {
			p.withRefs(childNeed, k.Expr)
		}
		in, m := p.exactUnlessScan(t.Input, childNeed)
		keys := make([]SortKey, len(t.Keys))
		for i, k := range t.Keys {
			keys[i] = SortKey{Expr: renumber(k.Expr, m), Desc: k.Desc}
		}
		return &SortNode{Input: in, Keys: keys}, m
	case *LimitNode:
		in, m := p.prune(t.Input, need)
		return &LimitNode{Input: in, N: t.N}, m
	case *UnionAllNode:
		// Every input must come out with the same shape: exactly the
		// needed columns, in order.
		inputs := make([]Node, len(t.Inputs))
		var m []int
		for i, c := range t.Inputs {
			in, mc := p.prune(c, need)
			inputs[i], m = exact(in, mc, need)
		}
		return &UnionAllNode{Inputs: inputs}, m
	default:
		return n, identity(len(need))
	}
}

// pruneScan narrows a scan to the needed columns. A scan nothing reads
// from (COUNT(*)) keeps one column, fixed-width if there is one, so
// batches still carry a row count.
func (p *pruner) pruneScan(t *ScanNode, need []bool) (Node, []int) {
	if t.RowID {
		return t, identity(len(need)) // DML plans list their read columns themselves
	}
	keep := append([]bool(nil), need...)
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	if kept == len(keep) {
		return t, identity(len(keep))
	}
	if kept == 0 {
		first := 0
		for i, c := range t.Out.Cols {
			if c.Kind != vtypes.KindStr {
				first = i
				break
			}
		}
		keep[first] = true
	}
	m := make([]int, len(keep))
	clone := *t
	clone.Cols, clone.Out = nil, &vtypes.Schema{}
	for i, k := range keep {
		m[i] = -1
		if k {
			m[i] = len(clone.Cols)
			clone.Cols = append(clone.Cols, t.Cols[i])
			clone.Out.Cols = append(clone.Out.Cols, t.Out.Cols[i])
		}
	}
	return &clone, m
}

// exactUnlessScan prunes a join or sort input and, unless it is a scan,
// drops whatever it still carries beyond need.
func (p *pruner) exactUnlessScan(n Node, need []bool) (Node, []int) {
	in, m := p.prune(n, need)
	if _, isScan := in.(*ScanNode); isScan {
		return in, m
	}
	return exact(in, m, need)
}

// exact puts a pure-ColRef projection over n when n (whose old→new
// position map is m) outputs anything beyond the needed columns.
func exact(n Node, m []int, need []bool) (Node, []int) {
	sch := n.Schema()
	out := make([]int, len(m))
	var exprs []Scalar
	var names []string
	for i, p := range m {
		out[i] = -1
		if need[i] && p >= 0 {
			out[i] = len(exprs)
			exprs = append(exprs, &ColRef{Idx: p, K: sch.Col(p).Kind})
			names = append(names, sch.Col(p).Name)
		}
	}
	if len(exprs) == sch.Len() {
		return n, m
	}
	return &ProjectNode{Input: n, Exprs: exprs, Names: names}, out
}

func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// withRefs marks every column the scalars reference in need and returns
// need.
func (p *pruner) withRefs(need []bool, ss ...Scalar) []bool {
	for _, s := range ss {
		_, err := MapScalar(s, func(leaf Scalar) (Scalar, error) {
			if c, ok := leaf.(*ColRef); ok {
				need[c.Idx] = true
			}
			return leaf, nil
		})
		if err != nil {
			p.unknown = true
		}
	}
	return need
}

// renumber rewrites s's column references through the old→new map m.
// withRefs has already walked s, so a scalar the traversal does not know
// was recorded there and the rewritten plan is discarded.
func renumber(s Scalar, m []int) Scalar {
	out, err := MapScalar(s, func(leaf Scalar) (Scalar, error) {
		if c, ok := leaf.(*ColRef); ok && m[c.Idx] != c.Idx {
			return &ColRef{Idx: m[c.Idx], K: c.K}, nil
		}
		return leaf, nil
	})
	if err != nil {
		return s
	}
	return out
}

func renumberAll(ss []Scalar, m []int) []Scalar {
	out := make([]Scalar, len(ss))
	for i, s := range ss {
		out[i] = renumber(s, m)
	}
	return out
}

package algebra

import (
	"fmt"
	"slices"
)

// The two traversals every plan pass is a callback over: MapNode
// rebuilds a plan tree, MapScalar an expression tree. Both go bottom-up
// and copy on change — a subtree the callbacks leave alone comes back as
// the same pointer, a changed leaf copies exactly the path from it to the
// root, and the input is never mutated, so a cached template and the
// plans bound or rewritten from it share what they have in common. A new
// pass is one callback; a new node kind is a struct and one case in
// rebuild (or MapScalar).

// MapNode rebuilds a plan bottom-up. At each node: its inputs first,
// then every expression the node itself holds — a predicate, projection,
// group key, aggregate argument, join or sort key —
// through MapScalar(expression, scalar), then node over the result.
// Either callback may be nil.
func MapNode(n Node, scalar func(Scalar) (Scalar, error), node func(Node) (Node, error)) (Node, error) {
	return rebuild(n, &mapper{scalar: scalar, node: node, walk: true})
}

// MapChildren returns n standing on f of each of its inputs (one level;
// n's scalars are untouched).
func MapChildren(n Node, f func(Node) (Node, error)) (Node, error) {
	return rebuild(n, &mapper{node: f})
}

// mapper rebuilds the operands of one node or expression, remembering
// the first error and whether anything came back different: expressions
// with MapScalar(expression, scalar); inputs with node(input), or when
// walk is set with MapNode(input, scalar, node) — a flag, not a recursing
// closure, so that a traversal allocates nothing for what it leaves alone.
type mapper struct {
	node    func(Node) (Node, error)
	scalar  func(Scalar) (Scalar, error)
	walk    bool
	changed bool
	err     error
}

func (m *mapper) in(n Node) Node {
	if m.err != nil || !m.walk && m.node == nil {
		return n
	}
	var out Node
	if m.walk {
		out, m.err = rebuild(n, &mapper{scalar: m.scalar, node: m.node, walk: true})
	} else {
		out, m.err = m.node(n)
	}
	if m.err != nil {
		return n
	}
	m.changed = m.changed || out != n
	return out
}

func (m *mapper) sc(s Scalar) Scalar {
	if m.err != nil || m.scalar == nil || s == nil { // COUNT(*) has no argument
		return s
	}
	out, err := MapScalar(s, m.scalar)
	if err != nil {
		m.err = err
		return s
	}
	m.changed = m.changed || out != s
	return out
}

// mapEach applies f to every element, copying the slice at the first
// element that changes.
func mapEach[T comparable](ss []T, f func(T) T) []T {
	out := ss
	for i, s := range ss {
		if e := f(s); e != s {
			if &out[0] == &ss[0] {
				out = slices.Clone(ss)
			}
			out[i] = e
		}
	}
	return out
}

// rebuild is the one place that knows each node kind's inputs and own
// scalars.
func rebuild(n Node, m *mapper) (Node, error) {
	out := n
	switch t := n.(type) {
	case *SelectNode:
		if in, pred := m.in(t.Input), m.sc(t.Pred); m.changed {
			c := *t
			c.Input, c.Pred = in, pred
			out = &c
		}
	case *ProjectNode:
		if in, exprs := m.in(t.Input), mapEach(t.Exprs, m.sc); m.changed {
			c := *t
			c.Input, c.Exprs = in, exprs
			out = &c
		}
	case *AggNode:
		in, groups := m.in(t.Input), mapEach(t.GroupBy, m.sc)
		aggs := mapEach(t.Aggs, func(a AggExpr) AggExpr { a.Arg = m.sc(a.Arg); return a })
		if m.changed {
			c := *t
			c.Input, c.GroupBy, c.Aggs = in, groups, aggs
			out = &c
		}
	case *JoinNode:
		l, r := m.in(t.Left), m.in(t.Right)
		if lk, rk := mapEach(t.LeftKeys, m.sc), mapEach(t.RightKeys, m.sc); m.changed {
			c := *t
			c.Left, c.Right, c.LeftKeys, c.RightKeys = l, r, lk, rk
			out = &c
		}
	case *SortNode:
		in := m.in(t.Input)
		keys := mapEach(t.Keys, func(k SortKey) SortKey { k.Expr = m.sc(k.Expr); return k })
		if m.changed {
			c := *t
			c.Input, c.Keys = in, keys
			out = &c
		}
	case *LimitNode:
		if in := m.in(t.Input); m.changed {
			c := *t
			c.Input = in
			out = &c
		}
	case *UnionAllNode:
		if inputs := mapEach(t.Inputs, m.in); m.changed {
			out = &UnionAllNode{Inputs: inputs}
		}
	case *ScanNode, *RemoteNode:
	default:
		return nil, fmt.Errorf("algebra: cannot rewrite %T", n)
	}
	if m.err != nil {
		return nil, m.err
	}
	if m.walk && m.node != nil {
		return m.node(out)
	}
	return out, nil
}

// MapScalar is MapNode's twin for expressions: every node — leaves
// first, then each interior node over its rebuilt operands — is replaced
// by f's result. It is the one traversal behind parameter binding, column
// renumbering and the rewriter's simplification.
func MapScalar(s Scalar, f func(Scalar) (Scalar, error)) (Scalar, error) {
	m := mapper{scalar: f}
	out := s
	switch t := s.(type) {
	case *ColRef, *Lit, *Param:
	case *Arith:
		if l, r := m.sc(t.L), m.sc(t.R); m.changed {
			out = &Arith{Op: t.Op, L: l, R: r, K: t.K}
		}
	case *Cmp:
		if l, r := m.sc(t.L), m.sc(t.R); m.changed {
			out = &Cmp{Op: t.Op, L: l, R: r}
		}
	case *Like:
		if in := m.sc(t.In); m.changed {
			out = &Like{In: in, Pattern: t.Pattern, Negate: t.Negate}
		}
	case *In:
		if in := m.sc(t.In); m.changed {
			out = &In{In: in, List: t.List}
		}
	case *And:
		if preds := mapEach(t.Preds, m.sc); m.changed {
			out = &And{Preds: preds}
		}
	case *Or:
		if preds := mapEach(t.Preds, m.sc); m.changed {
			out = &Or{Preds: preds}
		}
	case *Case:
		if cond, then, el := m.sc(t.Cond), m.sc(t.Then), m.sc(t.Else); m.changed {
			out = &Case{Cond: cond, Then: then, Else: el, K: t.K}
		}
	case *YearOf:
		if in := m.sc(t.In); m.changed {
			out = &YearOf{In: in}
		}
	case *IsNull:
		if in := m.sc(t.In); m.changed {
			out = &IsNull{In: in, Negate: t.Negate}
		}
	case *Cast:
		if in := m.sc(t.In); m.changed {
			out = &Cast{In: in, To: t.To}
		}
	default:
		return nil, fmt.Errorf("algebra: cannot rewrite scalar %T", s)
	}
	if m.err != nil {
		return nil, m.err
	}
	return f(out)
}

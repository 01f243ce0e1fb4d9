package algebra

import "vectorwise/internal/vtypes"

// Scan-filter extraction: the planner's data-skipping rewrite. A
// SelectNode sitting directly above a ScanNode holds exactly the
// single-table conjuncts predicate pushdown placed there; the sargable
// ones among them — column-vs-constant shapes a scan can both evaluate
// on decompressed chunks and turn into row-group min/max pruning — move
// into ScanNode.Filters, and only the residual (column-vs-column
// comparisons, LIKE, OR trees, IS NULL, ...) stays behind as a Select.
//
// Parameter slots count as constants: a cached plan template keeps the
// Param in the filter, BindParams substitutes the typed literal at bind
// time, and the cross-compiler synthesizes the prune function from the
// bound literal — so a plan-cache hit prunes with the execution's own
// bound values.

// Sargable reports whether s is a scan-pushable conjunct: a comparison
// between one column and a literal/parameter, a literal BETWEEN, or a
// literal IN, over a column of kinds the chunk statistics cover.
func Sargable(s Scalar) bool {
	switch t := s.(type) {
	case *Cmp:
		if col, ok := t.L.(*ColRef); ok && isConstScalar(t.R) {
			return statKind(col.K)
		}
		if col, ok := t.R.(*ColRef); ok && isConstScalar(t.L) {
			return statKind(col.K)
		}
		return false
	case *Between:
		col, ok := t.In.(*ColRef)
		return ok && statKind(col.K)
	case *In:
		col, ok := t.In.(*ColRef)
		return ok && statKind(col.K)
	default:
		return false
	}
}

// isConstScalar reports whether s is execution-time constant: a literal
// now, or a parameter slot that binds to one before compilation.
func isConstScalar(s Scalar) bool {
	switch s.(type) {
	case *Lit, *Param:
		return true
	default:
		return false
	}
}

// statKind reports whether chunk statistics exist for a column kind
// (booleans carry none).
func statKind(k vtypes.Kind) bool {
	switch k.StorageClass() {
	case vtypes.ClassI64, vtypes.ClassF64, vtypes.ClassStr:
		return true
	default:
		return false
	}
}

// PushFiltersIntoScans rewrites a plan so that sargable conjuncts of
// every Select-directly-above-Scan move into the scan's Filters. Nodes
// are rebuilt, never mutated, so a cached template and its bound
// executions never share rewritten state with callers holding the
// input. Scans that gain filters are fresh copies; a Select whose
// conjuncts all move disappears entirely.
func PushFiltersIntoScans(n Node) Node {
	switch t := n.(type) {
	case *SelectNode:
		in := PushFiltersIntoScans(t.Input)
		scan, ok := in.(*ScanNode)
		if !ok {
			if in == t.Input {
				return t
			}
			return &SelectNode{Input: in, Pred: t.Pred}
		}
		var filters, residual []Scalar
		for _, c := range splitAnd(t.Pred) {
			if Sargable(c) {
				filters = append(filters, c)
			} else {
				residual = append(residual, c)
			}
		}
		if len(filters) == 0 {
			if in == t.Input {
				return t
			}
			return &SelectNode{Input: in, Pred: t.Pred}
		}
		clone := *scan
		clone.Filters = append(append([]Scalar(nil), scan.Filters...), filters...)
		if len(residual) == 0 {
			return &clone
		}
		var pred Scalar
		if len(residual) == 1 {
			pred = residual[0]
		} else {
			pred = &And{Preds: residual}
		}
		return &SelectNode{Input: &clone, Pred: pred}
	case *ProjectNode:
		in := PushFiltersIntoScans(t.Input)
		if in == t.Input {
			return t
		}
		return &ProjectNode{Input: in, Exprs: t.Exprs, Names: t.Names}
	case *AggNode:
		in := PushFiltersIntoScans(t.Input)
		if in == t.Input {
			return t
		}
		out := *t
		out.Input = in
		return &out
	case *JoinNode:
		l, r := PushFiltersIntoScans(t.Left), PushFiltersIntoScans(t.Right)
		if l == t.Left && r == t.Right {
			return t
		}
		out := *t
		out.Left, out.Right = l, r
		return &out
	case *SortNode:
		in := PushFiltersIntoScans(t.Input)
		if in == t.Input {
			return t
		}
		return &SortNode{Input: in, Keys: t.Keys}
	case *LimitNode:
		in := PushFiltersIntoScans(t.Input)
		if in == t.Input {
			return t
		}
		return &LimitNode{Input: in, N: t.N}
	case *UnionAllNode:
		changed := false
		inputs := make([]Node, len(t.Inputs))
		for i, c := range t.Inputs {
			inputs[i] = PushFiltersIntoScans(c)
			if inputs[i] != c {
				changed = true
			}
		}
		if !changed {
			return t
		}
		return &UnionAllNode{Inputs: inputs}
	default:
		return n
	}
}

// FiltersPred re-assembles a scan's filter conjuncts into one boolean
// scalar — the form serial engines evaluate as an ordinary selection.
func FiltersPred(filters []Scalar) Scalar {
	if len(filters) == 1 {
		return filters[0]
	}
	return &And{Preds: filters}
}

// splitAnd flattens nested conjunctions into a conjunct list.
func splitAnd(s Scalar) []Scalar {
	if a, ok := s.(*And); ok {
		var out []Scalar
		for _, p := range a.Preds {
			out = append(out, splitAnd(p)...)
		}
		return out
	}
	return []Scalar{s}
}

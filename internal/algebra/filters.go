package algebra

import "slices"

// Scan-filter extraction: the planner's data-skipping rewrite. A
// SelectNode sitting directly above a ScanNode holds exactly the
// single-table conjuncts predicate pushdown placed there; the sargable
// ones among them — those ReadInterval reads as a constraint on one
// column, which a scan can both evaluate on decompressed chunks and test
// against row-group min/max — move into ScanNode.Filters, and only the
// residual (column-vs-column comparisons, LIKE, OR trees, IS NULL, ...)
// stays behind as a Select.
//
// Parameter slots count as constants: a cached plan template keeps the
// Param in the filter, BindParams substitutes the typed literal at bind
// time, and the cross-compiler synthesizes the prune function from the
// bound literal — so a plan-cache hit prunes with the execution's own
// bound values.

// PushFiltersIntoScans rewrites a plan so that the sargable conjuncts of
// every Select-directly-above-Scan move into the scan's Filters. A scan
// that gains filters is a fresh copy (the input plan is never mutated,
// see MapNode); a Select whose conjuncts all move disappears entirely.
func PushFiltersIntoScans(n Node) Node {
	out, err := MapNode(n, nil, func(n Node) (Node, error) {
		sel, ok := n.(*SelectNode)
		if !ok {
			return n, nil
		}
		scan, ok := sel.Input.(*ScanNode)
		if !ok {
			return n, nil
		}
		var filters, residual []Scalar
		for _, c := range splitAnd(sel.Pred) {
			if _, ok := ReadInterval(c); ok {
				filters = append(filters, c)
			} else {
				residual = append(residual, c)
			}
		}
		if len(filters) == 0 {
			return n, nil
		}
		clone := *scan
		clone.Filters = append(slices.Clone(scan.Filters), filters...)
		if len(residual) == 0 {
			return &clone, nil
		}
		return &SelectNode{Input: &clone, Pred: FiltersPred(residual)}, nil
	})
	if err != nil {
		return n // a node the traversal does not know: the plan stays as written
	}
	return out
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

// Package tupleengine is the tuple-at-a-time Volcano baseline the paper
// compares against: "straightforward implementations ... that transport
// just a single tuple-at-a-time through a query pipeline are bound to
// spend most execution time in interpretation overhead rather than query
// execution" (§I-A). Every operator pulls one boxed row per Next() call,
// and every scalar expression is interpreted recursively per row — the
// canonical design of classical row stores, implemented honestly (not
// deliberately pessimized): it is the per-tuple interpretation itself
// that costs.
package tupleengine

import (
	"fmt"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// RowIter is the Volcano iterator: one row per Next.
type RowIter interface {
	Open() error
	// Next returns the next row; ok=false at end of stream.
	Next() (row vtypes.Row, ok bool, err error)
	Close() error
}

// Build compiles a plan into a row iterator tree.
func Build(n algebra.Node, cat *catalog.Catalog) (RowIter, error) {
	switch t := n.(type) {
	case *algebra.ScanNode:
		if t.RowID {
			return nil, fmt.Errorf("tupleengine: row-id scans are not supported")
		}
		tbl, layers, err := cat.Resolve(t.Table)
		if err != nil {
			return nil, err
		}
		return newScanIter(tbl, layers, t.Cols, t.PartLo, t.PartHi), nil
	case *algebra.SelectNode:
		child, err := Build(t.Input, cat)
		if err != nil {
			return nil, err
		}
		return &selectIter{child: child, pred: t.Pred}, nil
	case *algebra.ProjectNode:
		child, err := Build(t.Input, cat)
		if err != nil {
			return nil, err
		}
		return &projectIter{child: child, exprs: t.Exprs}, nil
	case *algebra.AggNode:
		child, err := Build(t.Input, cat)
		if err != nil {
			return nil, err
		}
		return &aggIter{child: child, node: t}, nil
	case *algebra.JoinNode:
		left, err := Build(t.Left, cat)
		if err != nil {
			return nil, err
		}
		right, err := Build(t.Right, cat)
		if err != nil {
			return nil, err
		}
		return &joinIter{left: left, right: right, node: t}, nil
	case *algebra.SortNode:
		child, err := Build(t.Input, cat)
		if err != nil {
			return nil, err
		}
		return &sortIter{child: child, keys: t.Keys}, nil
	case *algebra.LimitNode:
		child, err := Build(t.Input, cat)
		if err != nil {
			return nil, err
		}
		return &limitIter{child: child, n: t.N}, nil
	case *algebra.UnionAllNode:
		var children []RowIter
		for _, in := range t.Inputs {
			c, err := Build(in, cat)
			if err != nil {
				return nil, err
			}
			children = append(children, c)
		}
		return &unionIter{children: children}, nil
	case *algebra.RemoteNode:
		return nil, fmt.Errorf("tupleengine: remote leaves are not supported")
	default:
		return nil, fmt.Errorf("tupleengine: unsupported node %T", n)
	}
}

// Run drains a plan into rows.
func Run(n algebra.Node, cat *catalog.Catalog) ([]vtypes.Row, error) {
	it, err := Build(n, cat)
	if err != nil {
		return nil, err
	}
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []vtypes.Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}

// scanIter reads a table row by row — boxing each value, exactly the
// per-tuple cost the paper attributes to row pipelines. (The underlying
// storage is shared with the vectorized engine; the difference under
// measurement is the execution discipline, not the data layout.)
type scanIter struct {
	tbl    *storage.Table
	layers []*pdt.PDT
	cols   []int
	lo, hi int

	src  pdt.RowSource
	vecs []*vector.Vector
	cur  int
	n    int
}

func newScanIter(tbl *storage.Table, layers []*pdt.PDT, cols []int, lo, hi int) *scanIter {
	return &scanIter{tbl: tbl, layers: layers, cols: cols, lo: lo, hi: hi}
}

// Open implements RowIter.
func (s *scanIter) Open() error {
	sc := storage.NewScanner(s.tbl, s.cols, storage.DecodedFetcher{}, nil, 1024)
	if s.hi > 0 {
		sc.SetGroupRange(s.lo, s.hi)
	}
	s.src = pdt.MergeLayers(sc, s.layers, s.cols, 1024)
	s.cur, s.n = 0, 0
	return nil
}

// Next implements RowIter.
func (s *scanIter) Next() (vtypes.Row, bool, error) {
	for s.cur >= s.n {
		cols, n, err := s.src.Next()
		if err != nil {
			return nil, false, err
		}
		if n == 0 {
			return nil, false, nil
		}
		s.vecs = cols
		s.cur, s.n = 0, n
	}
	row := make(vtypes.Row, len(s.vecs))
	for c, v := range s.vecs {
		row[c] = v.Get(s.cur)
	}
	s.cur++
	return row, true, nil
}

// Close implements RowIter.
func (s *scanIter) Close() error { return nil }

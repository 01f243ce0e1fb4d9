package core

import (
	"context"
	"slices"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort materializes its input into columnar buffers, sorts a permutation
// of row ids by the keys, and streams the permuted rows back out in
// vectors gathered through that permutation. (X100 sorts are also
// stop-and-go materializers; vectors only bound the unit of data
// movement.) A key that is a plain column reference sorts on its payload
// column's buffer; any other key is evaluated per input batch and stored
// beside the payload.
type Sort struct {
	child   Operator
	keys    []SortKey
	vecSize int

	cols      []*colBuf // payload columns
	keyC      []*colBuf // key columns
	keyShared []bool    // keyC[i] is one of cols
	perm      []int32
	out       vector.Batch
	built     bool
	outPos    int
	ctx       context.Context
}

// NewSort builds the operator.
func NewSort(child Operator, keys []SortKey) *Sort {
	return &Sort{child: child, keys: keys, vecSize: vector.DefaultSize}
}

// Schema implements Operator.
func (s *Sort) Schema() *vtypes.Schema { return s.child.Schema() }

// SetContext implements ContextSetter.
func (s *Sort) SetContext(ctx context.Context) { s.ctx = ctx }

// Open implements Operator.
func (s *Sort) Open() error { return s.child.Open() }

// consume materializes the child and evaluated sort keys, then sorts.
func (s *Sort) consume() error {
	s.cols = newColBufs(s.child.Schema())
	keyExprs := make([]Expr, len(s.keys))
	for i, k := range s.keys {
		keyExprs[i] = k.Expr
	}
	s.keyC, s.keyShared = keyColBufs(keyExprs, s.cols)
	rows := 0
	for {
		// Cancellation point while materializing the input.
		if err := ctxErr(s.ctx); err != nil {
			return err
		}
		b, err := s.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if b.N == 0 {
			continue
		}
		for c, k := range s.keys {
			if s.keyShared[c] {
				continue
			}
			v, err := k.Expr.Eval(b)
			if err != nil {
				return err
			}
			s.keyC[c].append(v, b.Sel, b.N)
		}
		for c, buf := range s.cols {
			buf.append(b.Vecs[c], b.Sel, b.N)
		}
		rows += b.N
	}
	s.perm = make([]int32, rows)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	slices.SortStableFunc(s.perm, func(a, b int32) int {
		for c, k := range s.keys {
			if cmp := s.keyC[c].compare(a, b); cmp != 0 {
				if k.Desc {
					return -cmp
				}
				return cmp
			}
		}
		return 0
	})
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (*vector.Batch, error) {
	if err := ctxErr(s.ctx); err != nil {
		return nil, err
	}
	if !s.built {
		if err := s.consume(); err != nil {
			return nil, err
		}
		s.built = true
	}
	n := min(len(s.perm)-s.outPos, s.vecSize)
	if n <= 0 {
		return nil, nil
	}
	s.out.Vecs = outVectors(s.out.Vecs, s.Schema(), s.vecSize)
	for c, buf := range s.cols {
		buf.gather(s.out.Vecs[c], nil, s.perm[s.outPos:], n)
	}
	s.outPos += n
	s.out.SetDense(n)
	return &s.out, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.cols, s.keyC, s.perm, s.out = nil, nil, nil, vector.Batch{}
	return s.child.Close()
}

// NewTopN composes Sort and Limit — ORDER BY ... LIMIT n.
func NewTopN(child Operator, keys []SortKey, n int64) Operator {
	return NewLimit(NewSort(child, keys), n)
}

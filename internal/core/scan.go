package core

import (
	"context"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// Scan reads a column projection of a stable table, merging in the
// table's PDT layers positionally. A pinned snapshot resolves a table
// to one layer, its pin's combined read layer; the reference engines'
// catalog view passes the committed stack (big PDT, then tails). With
// empty PDTs the scan serves zero-copy views of decompressed chunks;
// with deltas it routes through the merge scan, which still serves the
// views of batches no delta touches.
//
// A Scan may carry a filter predicate (the Select directly over the
// plan's scan): it is evaluated on every batch right after decompression
// (and after delta merge), so downstream operators see pre-filtered
// selection vectors, and it is the predicate row-group pruning was
// derived from.
type Scan struct {
	table   *storage.Table
	cols    []int
	filter  Pred
	vecSize int
	// PDT layers, bottom-up; nil/empty layers are skipped.
	layers []*pdt.PDT
	// rid, when non-nil, is the trailing row-id vector (ScanOpts.RowID),
	// refilled for every batch.
	rid *vector.Vector

	schema *vtypes.Schema
	// sc reads the stable image, configured once: fetch, skip, stats and
	// group range. Open rewinds it and stacks the layers' merges over it
	// into src.
	sc    *storage.Scanner
	src   pdt.PositionedSource
	batch *vector.Batch
	ctx   context.Context
}

// ScanOpts configures a Scan.
type ScanOpts struct {
	// Fetch interposes a buffer manager; nil reads chunks directly.
	Fetch storage.ChunkFetcher
	// Skip skips row groups by statistics and narrows the groups of a
	// sorted chunk by search (storage.Skip); Filter must reject every
	// row it leaves out. Statistics and order describe the stable image.
	// Under PDT layers the rows left out are a gap: the merge emits their
	// inserted rows, whole tuples for Filter to judge, and counts their
	// deletes and modifications without reading a stable chunk. A
	// modification is the one delta that can make a left-out row match,
	// so a group whose range holds a Mod of a SkipCols column, in any
	// layer, is read whole: neither refuted nor searched.
	Skip *storage.Skip
	// SkipCols are the table columns Skip reads.
	SkipCols pdt.ColSet
	// Filter, when non-nil, is evaluated on every output batch inside
	// the scan (post-decompression, post-merge); surviving rows are
	// referenced through the batch's selection vector.
	Filter Pred
	// Stats, when non-nil, counts scanned/pruned row groups (shared
	// across the partition scans of one query).
	Stats *storage.ScanStats
	// VecSize overrides vector.DefaultSize.
	VecSize int
	// Layers are PDT layers, bottom (committed master) first.
	Layers []*pdt.PDT
	// GroupLo/GroupHi restrict the scan to row groups [lo, hi) for
	// parallel partition scans; both zero means the whole table.
	GroupLo, GroupHi int
	// RowID appends vtypes.RowIDColumn to the output: each row's
	// position in the merged image, filled before Filter runs. The
	// vector is reused from batch to batch.
	RowID bool
}

// NewScan builds a scan of the given column indexes of t.
func NewScan(t *storage.Table, cols []int, opts ScanOpts) *Scan {
	full := t.Schema()
	outCols := make([]vtypes.Column, len(cols))
	for i, c := range cols {
		outCols[i] = full.Cols[c]
	}
	s := &Scan{
		table:   t,
		cols:    append([]int(nil), cols...),
		filter:  opts.Filter,
		vecSize: opts.VecSize,
		layers:  opts.Layers,
		schema:  &vtypes.Schema{Cols: outCols},
	}
	if s.vecSize <= 0 {
		s.vecSize = vector.DefaultSize
	}
	if opts.RowID {
		s.schema.Cols = append(s.schema.Cols, vtypes.RowIDColumn)
		s.rid = vector.New(vtypes.KindI64, s.vecSize)
	}
	skip := opts.Skip
	if skip != nil && s.hasDeltas() {
		sk := *skip
		sk.Whole = s.modifies(opts.SkipCols)
		skip = &sk
	}
	s.sc = storage.NewScanner(t, s.cols, opts.Fetch, skip, s.vecSize)
	s.sc.SetStats(opts.Stats)
	if opts.GroupHi > 0 {
		s.sc.SetGroupRange(opts.GroupLo, opts.GroupHi)
	}
	return s
}

// Schema implements Operator.
func (s *Scan) Schema() *vtypes.Schema { return s.schema }

// SetContext implements ContextSetter.
func (s *Scan) SetContext(ctx context.Context) { s.ctx = ctx }

// hasDeltas reports whether any PDT layer carries entries.
func (s *Scan) hasDeltas() bool {
	for _, p := range s.layers {
		if p != nil && !p.Empty() {
			return true
		}
	}
	return false
}

// modifies is data skipping's one delta rule: it reports whether a PDT
// layer modifies one of cols inside row group g, whose range is
// re-expressed through each layer's image (SID → RID) on the way up.
func (s *Scan) modifies(cols pdt.ColSet) func(g int) bool {
	starts := make([]int64, s.table.Groups())
	for g := 1; g < len(starts); g++ {
		starts[g] = starts[g-1] + int64(s.table.GroupRows(g-1))
	}
	return func(g int) bool {
		lo, hi := starts[g], starts[g]+int64(s.table.GroupRows(g))
		for _, layer := range s.layers {
			if layer == nil || layer.Empty() {
				continue
			}
			if layer.ModifiesIn(lo, hi, cols) {
				return true
			}
			lo, hi = layer.StartRID(lo), layer.StartRID(hi)
		}
		return false
	}
}

// Open implements Operator.
func (s *Scan) Open() error {
	s.sc.Reset()
	s.src = pdt.MergeLayers(s.sc, s.layers, s.cols, s.vecSize)
	return nil
}

// Next implements Operator.
func (s *Scan) Next() (*vector.Batch, error) {
	for {
		if err := ctxErr(s.ctx); err != nil {
			return nil, err
		}
		b, err := s.nextRaw()
		if err != nil || b == nil {
			return nil, err
		}
		if s.filter != nil {
			if err := s.filter.Filter(b); err != nil {
				return nil, err
			}
			if b.N == 0 {
				continue
			}
		}
		return b, nil
	}
}

// nextRaw pulls the next unfiltered batch from the merge stack.
func (s *Scan) nextRaw() (*vector.Batch, error) {
	vecs, n, err := s.src.Next()
	if err != nil || n == 0 {
		return nil, err
	}
	if s.batch == nil {
		s.batch = &vector.Batch{}
	}
	b := s.batch
	if s.rid != nil {
		// No batch spans a gap, not even one a pruned group's inserted
		// rows leave, and the top merge's BasePos is RID-true across
		// gaps and layers, so rows are pos, pos+1, ….
		rids, pos := s.rid.I64[:n], s.src.BasePos()
		for i := range rids {
			rids[i] = pos + int64(i)
		}
		// vecs belongs to the source: extend a copy held by the batch.
		vecs = append(append(b.Vecs[:0], vecs...), s.rid)
	}
	b.Vecs = vecs
	b.SetDense(n)
	return b, nil
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.sc.Reset()
	s.src = nil
	return nil
}

// Select filters its input with a compiled predicate; surviving rows are
// referenced through the batch's selection vector, never copied.
type Select struct {
	child Operator
	pred  Pred
	ctx   context.Context
}

// Pred re-exports expr.Pred to avoid an import cycle in operator users.
type Pred interface {
	Filter(b *vector.Batch) error
}

// NewSelect wraps child with a filter.
func NewSelect(child Operator, pred Pred) *Select {
	return &Select{child: child, pred: pred}
}

// Schema implements Operator.
func (s *Select) Schema() *vtypes.Schema { return s.child.Schema() }

// SetContext implements ContextSetter.
func (s *Select) SetContext(ctx context.Context) { s.ctx = ctx }

// Open implements Operator.
func (s *Select) Open() error { return s.child.Open() }

// Next implements Operator.
func (s *Select) Next() (*vector.Batch, error) {
	for {
		if err := ctxErr(s.ctx); err != nil {
			return nil, err
		}
		b, err := s.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if err := s.pred.Filter(b); err != nil {
			return nil, err
		}
		if b.N > 0 {
			return b, nil
		}
	}
}

// Close implements Operator.
func (s *Select) Close() error { return s.child.Close() }

// Expr re-exports the expression contract used by Project and the
// aggregate/join operators.
type Expr interface {
	Kind() vtypes.Kind
	Eval(b *vector.Batch) (*vector.Vector, error)
}

// Project computes one expression per output column. Column references
// pass through zero-copy; computed columns share the child's selection
// vector (results are written only at live positions).
type Project struct {
	child  Operator
	exprs  []Expr
	schema *vtypes.Schema
	out    vector.Batch
	ctx    context.Context
}

// NewProject builds a projection; names label the output columns.
func NewProject(child Operator, exprs []Expr, names []string) *Project {
	cols := make([]vtypes.Column, len(exprs))
	for i, e := range exprs {
		cols[i] = vtypes.Column{Name: names[i], Kind: e.Kind()}
	}
	return &Project{child: child, exprs: exprs, schema: &vtypes.Schema{Cols: cols}}
}

// Schema implements Operator.
func (p *Project) Schema() *vtypes.Schema { return p.schema }

// SetContext implements ContextSetter.
func (p *Project) SetContext(ctx context.Context) { p.ctx = ctx }

// Open implements Operator.
func (p *Project) Open() error { return p.child.Open() }

// Next implements Operator.
func (p *Project) Next() (*vector.Batch, error) {
	if err := ctxErr(p.ctx); err != nil {
		return nil, err
	}
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if p.out.Vecs == nil {
		p.out.Vecs = make([]*vector.Vector, len(p.exprs))
	}
	for i, e := range p.exprs {
		v, err := e.Eval(b)
		if err != nil {
			return nil, err
		}
		p.out.Vecs[i] = v
	}
	p.out.Sel = b.Sel
	p.out.N = b.N
	return &p.out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.child.Close() }

// Limit passes through at most n rows.
type Limit struct {
	child Operator
	n     int64
	seen  int64
	ctx   context.Context
}

// NewLimit caps the stream at n rows.
func NewLimit(child Operator, n int64) *Limit { return &Limit{child: child, n: n} }

// Schema implements Operator.
func (l *Limit) Schema() *vtypes.Schema { return l.child.Schema() }

// SetContext implements ContextSetter.
func (l *Limit) SetContext(ctx context.Context) { l.ctx = ctx }

// Open implements Operator.
func (l *Limit) Open() error {
	l.seen = 0
	return l.child.Open()
}

// Next implements Operator.
func (l *Limit) Next() (*vector.Batch, error) {
	if err := ctxErr(l.ctx); err != nil {
		return nil, err
	}
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if l.seen+int64(b.N) > l.n {
		keep := int(l.n - l.seen)
		if b.Sel != nil {
			// The child owns b.Sel (often a reused selBuf); truncate a
			// private copy so operators that reuse the batch across
			// Next calls are not corrupted by the shortened view.
			sel := make([]int32, keep)
			copy(sel, b.Sel[:keep])
			b.Sel = sel
		}
		b.N = keep
	}
	l.seen += int64(b.N)
	return b, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.child.Close() }

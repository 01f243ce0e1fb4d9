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
// A Scan may carry a filter predicate (the plan's pushed-down sargable
// conjuncts): it is evaluated on every batch right after decompression
// (and after delta merge), so downstream operators see pre-filtered
// selection vectors, and it is the predicate row-group pruning was
// derived from.
type Scan struct {
	table   *storage.Table
	cols    []int
	fetch   storage.ChunkFetcher
	prune   storage.PruneFn
	filter  Pred
	stats   *storage.ScanStats
	vecSize int
	// PDT layers, bottom-up; nil/empty layers are skipped.
	layers []*pdt.PDT
	// group range for parallel partition scans; hi == 0 means all.
	gLo, gHi int
	// rid, when non-nil, is the trailing row-id vector (ScanOpts.RowID),
	// refilled for every batch.
	rid *vector.Vector

	schema *vtypes.Schema
	sc     *storage.Scanner
	merged pdt.PositionedSource
	batch  *vector.Batch
	ctx    context.Context
}

// ScanOpts configures a Scan.
type ScanOpts struct {
	// Fetch interposes a buffer manager; nil reads chunks directly.
	Fetch storage.ChunkFetcher
	// Prune skips row groups by statistics. With non-empty PDT layers
	// it still applies, restricted to groups whose global position
	// range carries no delta entries in any layer — the positional
	// merge steps over the entry-free gap, so clean cold groups skip
	// while touched groups merge normally.
	Prune storage.PruneFn
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
		fetch:   opts.Fetch,
		prune:   opts.Prune,
		filter:  opts.Filter,
		stats:   opts.Stats,
		vecSize: opts.VecSize,
		layers:  opts.Layers,
		gLo:     opts.GroupLo,
		gHi:     opts.GroupHi,
		schema:  &vtypes.Schema{Cols: outCols},
	}
	if s.vecSize <= 0 {
		s.vecSize = vector.DefaultSize
	}
	if opts.RowID {
		s.schema.Cols = append(s.schema.Cols, vtypes.RowIDColumn)
		s.rid = vector.New(vtypes.KindI64, s.vecSize)
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

// Open implements Operator.
func (s *Scan) Open() error {
	prune := s.prune
	if prune != nil && s.hasDeltas() {
		// Pruning under a positional merge: a group may only be
		// skipped when its global position range is entry-free in
		// every PDT layer, so the merge steps over a clean gap and
		// touched groups keep dense positions. The range is re-expressed
		// through each layer's image (SID → RID) on the way up.
		starts := s.groupStarts()
		inner := prune
		prune = func(g int, grp *storage.GroupMeta) bool {
			lo, hi := starts[g], starts[g]+int64(grp.Rows)
			for _, layer := range s.layers {
				if layer == nil || layer.Empty() {
					continue
				}
				if layer.HasEntriesIn(lo, hi) {
					return false
				}
				lo, hi = layer.StartRID(lo), layer.StartRID(lo)+(hi-lo)
			}
			return inner(g, grp)
		}
	}
	s.sc = storage.NewScanner(s.table, s.cols, s.fetch, prune, s.vecSize)
	s.sc.SetStats(s.stats)
	if s.gHi > 0 {
		s.sc.SetGroupRange(s.gLo, s.gHi)
	}
	if s.hasDeltas() {
		s.merged = pdt.MergeLayers(&storage.PositionedScanner{Scanner: s.sc}, s.layers, s.cols, s.vecSize)
	}
	return nil
}

// groupStarts returns the global start position of every row group.
func (s *Scan) groupStarts() []int64 {
	starts := make([]int64, s.table.Groups())
	var pos int64
	for g := range starts {
		starts[g] = pos
		pos += int64(s.table.GroupRows(g))
	}
	return starts
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

// nextRaw pulls the next unfiltered batch from storage (or the merge).
func (s *Scan) nextRaw() (*vector.Batch, error) {
	var (
		vecs []*vector.Vector
		pos  int64
		n    int
		err  error
	)
	if s.merged != nil {
		vecs, n, err = s.merged.Next()
		pos = s.merged.BasePos()
	} else {
		vecs, pos, n, err = s.sc.Next()
	}
	if err != nil || n == 0 {
		return nil, err
	}
	if s.batch == nil {
		s.batch = &vector.Batch{}
	}
	b := s.batch
	if s.rid != nil {
		// No batch spans a pruned gap and the top merge's BasePos is
		// RID-true across gaps and layers, so rows are pos, pos+1, ….
		rids := s.rid.I64[:n]
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
	s.sc, s.merged = nil, nil
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

package core

import (
	"context"
	"slices"
	"time"

	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// AggFn names an aggregate function.
type AggFn uint8

// Aggregate functions: the planner writes any other in terms of these
// (sql.Planner.lowerAgg).
const (
	AggSum AggFn = iota
	AggCount
	AggCountStar
	AggMin
	AggMax
)

// AggSpec is one aggregate column: a function over an input expression
// (nil for COUNT(*)). Aggregates whose Arg is the same Expr value share
// its evaluation and their accumulators; the cross-compiler hands equal
// arguments over as one Expr.
type AggSpec struct {
	Fn  AggFn
	Arg Expr
}

// resultKind returns the output kind of the aggregate.
func (a AggSpec) resultKind() vtypes.Kind {
	switch a.Fn {
	case AggCount, AggCountStar:
		return vtypes.KindI64
	default:
		return a.Arg.Kind()
	}
}

// smallGroups is the most groups for which a batch is partitioned by
// group and each sum reduces a group's run at once. Past it every
// accumulator is updated row by row at the row's group id, which is
// cheaper than partitioning when rows rarely share a group within a
// batch: BenchmarkHashAggProbe's runs and scatter flavours cross
// between 16 and 64 groups at the default vector size.
const smallGroups = vector.DefaultSize / 64

// aggArg is one distinct aggregate argument, evaluated once per batch and
// folded into every accumulator over it.
type aggArg struct {
	expr     Expr
	sums     []*accum // SUM
	extremes []*accum // MIN, MAX
	counted  bool     // a COUNT(x) reads the row count less nulls
	// nulls counts each group's rows where the argument is NULL. It is
	// created when a batch's value first carries a null indicator, so it
	// never exists over NOT NULL data.
	nulls []int64
	// fill holds the values of a coded or arena argument's live rows, for
	// MIN and MAX; nil until such a batch arrives. SUM reads a coded DOUBLE
	// through its dictionary row by row.
	fill *vector.Vector
}

// accum is one accumulator: a slot per group. fn is AggSum, AggMin or
// AggMax over the argument, or AggCountStar for the row count.
type accum struct {
	fn    AggFn
	class vtypes.Class // of the slots
	i64   []int64
	f64   []float64
	str   []string
	seen  []bool // Min/Max initialization
}

// aggOut says where one aggregate column reads its result.
type aggOut struct {
	fn  AggFn
	acc *accum  // SUM, MIN, MAX
	arg *aggArg // COUNT(x): whose NULLs the row count excludes
}

// resize truncates or extends the slots to n groups, as resize below does.
func (c *accum) resize(n int) {
	switch c.class {
	case vtypes.ClassF64:
		c.f64 = resize(c.f64, n)
	case vtypes.ClassStr:
		c.str = resize(c.str, n)
	default:
		c.i64 = resize(c.i64, n)
	}
	if c.fn == AggMin || c.fn == AggMax {
		c.seen = resize(c.seen, n)
	}
}

// resize truncates s to n slots (a flush) or appends zero slots up to n,
// at least doubling a slice too small for them: the accumulators stay flat
// for the Agg* kernels, and append's own growth would copy a large slice
// again for every 25 % it gains.
func resize[T any](s []T, n int) []T {
	have := len(s)
	if n <= have {
		return s[:n]
	}
	if n > cap(s) {
		s = slices.Grow(s, max(have, n-have, 64))
	}
	s = s[:n]
	clear(s[have:]) // slots a flush truncated hold old values
	return s
}

// reduce adds the run sel[:n] of group g's rows to slot g (sums only).
func (c *accum) reduce(g int, v *vector.Vector, sel []int32, n int) {
	switch {
	case c.class == vtypes.ClassF64 && v.Codes != nil:
		c.f64[g] += primitives.SumCodes(v.Codes, v.DictF64(), sel, n)
	case c.class == vtypes.ClassF64:
		c.f64[g] += primitives.ReduceSum(v.F64, sel, n)
	default:
		c.i64[g] += primitives.ReduceSum(v.I64, sel, n)
	}
}

// scatter folds each live row into its group's slot.
func (c *accum) scatter(v *vector.Vector, groups []uint32, sel []int32, n int) {
	switch c.fn {
	case AggSum:
		switch {
		case c.class != vtypes.ClassF64:
			primitives.AggSum(c.i64, groups, v.I64, sel, n)
		case v.Codes != nil:
			primitives.AggSumCodes(c.f64, groups, v.Codes, v.DictF64(), sel, n)
		default:
			primitives.AggSum(c.f64, groups, v.F64, sel, n)
		}
	case AggMin:
		switch c.class {
		case vtypes.ClassF64:
			primitives.AggMin(c.f64, c.seen, groups, v.F64, sel, n)
		case vtypes.ClassStr:
			primitives.AggMin(c.str, c.seen, groups, v.Str, sel, n)
		default:
			primitives.AggMin(c.i64, c.seen, groups, v.I64, sel, n)
		}
	case AggMax:
		switch c.class {
		case vtypes.ClassF64:
			primitives.AggMax(c.f64, c.seen, groups, v.F64, sel, n)
		case vtypes.ClassStr:
			primitives.AggMax(c.str, c.seen, groups, v.Str, sel, n)
		default:
			primitives.AggMax(c.i64, c.seen, groups, v.I64, sel, n)
		}
	}
}

// HashAggregate implements vectorized grouped aggregation: a grouper
// (grouper.go) translates each input batch to dense group ids and stores
// the new groups' keys, then the accumulators, which know nothing of keys,
// grow to the group count and fold in each distinct argument, evaluated
// once. With one group, or at most smallGroups, the batch is ordered by
// group and a sum adds each group's run once; otherwise one Agg* kernel
// per accumulator scatters the batch.
//
// A group key that arrives in non-decreasing order (SetOrderedKey) makes
// the aggregate stream. Groups are numbered in arrival order, so once a
// batch's first ordered key is above every key consumed, every group held
// is finished: when at least vecSize are held, it emits them (in key
// order), forgets them, keeping every buffer's capacity, and consumes on.
// It holds at most the groups since the last batch boundary that fell
// between two keys after vecSize groups.
type HashAggregate struct {
	child     Operator
	groupBy   []Expr
	aggs      []AggSpec
	schema    *vtypes.Schema
	vecSize   int
	smallMax  int // smallGroups; tests move it to run either flavour
	groups    grouper
	keys      []*colBuf // the grouper's stored keys
	args      []*aggArg
	accs      []*accum // every accumulator, grown together
	rows      *accum   // the row count; nil when no aggregate counts
	outs      []aggOut // one per aggregate
	extremes  bool     // some aggregate is MIN or MAX
	numGroups int

	ordKey  int           // the group key that arrives in order, or -1
	pending *vector.Batch // the batch a flush set aside
	peak    int           // the most groups held at once

	ids     []uint32 // the batch's group ids, from the grouper
	part    []int32  // the batch's live rows ordered by group
	offs    []int32  // group g's rows are part[offs[g]:offs[g+1]]
	argSel  []int32  // live rows whose aggregate argument is (not) NULL
	outIdx  []int32  // group ids of the batch being emitted
	out     vector.Batch
	sink    *HashStatsSink
	probeNs int64 // cumulative grouper time (agg_probe_ns)
	built   bool
	outPos  int
	ctx     context.Context
	// partial marks a per-partition aggregate under a parallel
	// recombination: ungrouped over zero rows it emits nothing instead
	// of the implicit global row (which would feed zeros into the
	// final MIN/MAX).
	partial bool
	inRows  int64
}

// SetPartial marks this aggregate as a parallel partial (see partial).
func (h *HashAggregate) SetPartial(p bool) { h.partial = p }

// NewHashAggregate builds the operator; names labels group columns then
// aggregate columns.
func NewHashAggregate(child Operator, groupBy []Expr, aggs []AggSpec, names []string) *HashAggregate {
	cols := make([]vtypes.Column, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		cols = append(cols, vtypes.Column{Name: names[i], Kind: g.Kind()})
	}
	for i, a := range aggs {
		cols = append(cols, vtypes.Column{Name: names[len(groupBy)+i], Kind: a.resultKind()})
	}
	return &HashAggregate{
		child: child, groupBy: groupBy, aggs: aggs,
		schema:   &vtypes.Schema{Cols: cols},
		vecSize:  vector.DefaultSize,
		smallMax: smallGroups,
		ordKey:   -1,
	}
}

// SetOrderedKey promises, before Open, that group key k — a BIGINT or
// DATE, never NULL — arrives in non-decreasing order (see HashAggregate).
// The caller vouches for it and the aggregate checks nothing: over keys
// out of order a key can come out as two groups. xcompile promises only
// what Table.Ordered says, which the storage scans verify as they read.
func (h *HashAggregate) SetOrderedKey(k int) { h.ordKey = k }

// Schema implements Operator.
func (h *HashAggregate) Schema() *vtypes.Schema { return h.schema }

// SetContext implements ContextSetter.
func (h *HashAggregate) SetContext(ctx context.Context) { h.ctx = ctx }

// SetStatsSink directs this operator's table stats to sink on Close.
func (h *HashAggregate) SetStatsSink(s *HashStatsSink) { h.sink = s }

// Open implements Operator.
func (h *HashAggregate) Open() error {
	if err := h.child.Open(); err != nil {
		return err
	}
	h.groups = newGrouper(h.groupBy, h.ordKey)
	h.keys = h.groups.table().keys
	h.args, h.accs, h.rows, h.extremes = nil, nil, nil, false
	h.outs = make([]aggOut, len(h.aggs))
	for i, a := range h.aggs {
		h.outs[i] = h.plan(a)
	}
	h.pending, h.peak, h.numGroups, h.probeNs, h.built, h.outPos, h.inRows = nil, 0, 0, 0, false, 0, 0
	h.resize(h.groups.table().n) // an ungrouped aggregate's one group
	return nil
}

// plan finds or creates what aggregate a reads: the row count for every
// COUNT, one argument per distinct Arg, and per argument one accumulator
// per function.
func (h *HashAggregate) plan(a AggSpec) aggOut {
	o := aggOut{fn: a.Fn}
	if (a.Fn == AggCountStar || a.Fn == AggCount) && h.rows == nil {
		h.rows = &accum{fn: AggCountStar, class: vtypes.ClassI64}
		h.accs = append(h.accs, h.rows)
	}
	if a.Arg == nil {
		return o
	}
	if i := slices.IndexFunc(h.args, func(arg *aggArg) bool { return arg.expr == a.Arg }); i >= 0 {
		o.arg = h.args[i]
	} else {
		o.arg = &aggArg{expr: a.Arg}
		h.args = append(h.args, o.arg)
	}
	if a.Fn == AggCount {
		o.arg.counted = true
		return o
	}
	list := &o.arg.sums
	if a.Fn == AggMin || a.Fn == AggMax {
		list, h.extremes = &o.arg.extremes, true
	}
	for _, c := range *list {
		if c.fn == a.Fn {
			o.acc = c
			return o
		}
	}
	o.acc = &accum{fn: a.Fn, class: a.Arg.Kind().StorageClass()}
	*list = append(*list, o.acc)
	h.accs = append(h.accs, o.acc)
	return o
}

// consume drains the child, building groups and accumulators, until the
// input ends (built) or, with an ordered key, a flush is due: then the
// batch that showed it waits in pending until the held groups are out.
func (h *HashAggregate) consume() error {
	if b := h.pending; b != nil {
		h.pending = nil
		if err := h.consumeBatch(b); err != nil {
			return err
		}
	}
	for {
		// Cancellation point inside the build phase: a canceled context
		// stops the aggregation while it is still consuming input, not
		// only once groups start streaming out.
		if err := ctxErr(h.ctx); err != nil {
			return err
		}
		b, err := h.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			if h.partial && h.inRows == 0 {
				h.numGroups = 0 // empty partial: no implicit group
			}
			h.built = true
			return nil
		}
		if b.N == 0 {
			continue
		}
		if due, err := h.flushDue(b); due || err != nil {
			h.pending = b
			return err
		}
		if err := h.consumeBatch(b); err != nil {
			return err
		}
	}
}

// flushDue reports whether every group held is finished before batch b:
// they are at least vecSize, and b's first ordered key is above every key
// consumed, so no later row can join one of them.
func (h *HashAggregate) flushDue(b *vector.Batch) (bool, error) {
	if h.ordKey < 0 || h.numGroups < h.vecSize {
		return false, nil
	}
	v, err := h.groupBy[h.ordKey].Eval(b)
	if err != nil {
		return false, err
	}
	return v.I64[b.LiveIndex(0)] > h.groups.table().last, nil
}

// forget drops the groups a flush emitted, keeping the capacity of every
// buffer that held them for the groups after.
func (h *HashAggregate) forget() {
	h.peak = max(h.peak, h.numGroups)
	h.groups.reset()
	h.resize(0)
	h.outPos = 0
}

// resize sets every accumulator and NULL count to n groups.
func (h *HashAggregate) resize(n int) {
	for _, c := range h.accs {
		c.resize(n)
	}
	for _, a := range h.args {
		if a.nulls != nil {
			a.nulls = resize(a.nulls, n)
		}
	}
	h.numGroups = n
}

func (h *HashAggregate) consumeBatch(b *vector.Batch) error {
	h.inRows += int64(b.N)
	var start time.Time
	if len(h.keys) > 0 { // an ungrouped aggregate reports no PhaseNs
		start = time.Now()
	}
	ids, n, err := h.groups.group(b)
	if len(h.keys) > 0 {
		h.probeNs += time.Since(start).Nanoseconds()
	}
	if err != nil {
		return err
	}
	h.ids = ids
	h.resize(n)

	// Few groups: order the batch's rows by group so that each group's
	// rows are one run (one group: the batch is the run), counted and
	// summed once per batch. Many groups: scatter row by row.
	capn := b.Capacity()
	runs := n == 1 || n <= h.smallMax
	if runs && n > 1 {
		if cap(h.part) < capn {
			h.part = make([]int32, capn)
		}
		if need := primitives.PartitionLanes * h.numGroups; len(h.offs) < need {
			h.offs = make([]int32, max(2*need, primitives.PartitionLanes*smallGroups))
		}
		primitives.PartitionGroups(h.part, h.offs, ids, n, b.Sel, b.N)
	}
	if h.rows != nil {
		if runs {
			for g := range h.numGroups {
				_, _, n := h.run(g, b)
				h.rows.i64[g] += int64(n)
			}
		} else {
			primitives.AggCount(h.rows.i64, ids, b.Sel, b.N)
		}
	}
	for _, a := range h.args {
		v, err := a.expr.Eval(b)
		if err != nil {
			return err
		}
		if v.Packed() && len(a.extremes) > 0 {
			if a.fill == nil {
				a.fill = new(vector.Vector)
			}
			v = a.fill.FillFrom(v, b.Sel, b.N)
		}
		if v.Nulls != nil {
			if cap(h.argSel) < capn {
				h.argSel = make([]int32, capn)
			}
			if a.counted && a.nulls == nil {
				a.nulls = make([]int64, h.numGroups)
			}
		}
		if runs {
			h.reduceRuns(a, v, b)
		}
		h.scatter(a, v, b, runs)
	}
	return nil
}

// run returns group g's live rows in the batch being consumed and where
// they start in part.
func (h *HashAggregate) run(g int, b *vector.Batch) (sel []int32, lo, n int) {
	if h.numGroups == 1 {
		return b.Sel, 0, b.N
	}
	lo, hi := int(h.offs[g]), int(h.offs[g+1])
	return h.part[lo:hi], lo, hi - lo
}

// reduceRuns folds argument a's value v into its sums and NULL count a
// group's run at a time, each run adding to its group's slot once.
func (h *HashAggregate) reduceRuns(a *aggArg, v *vector.Vector, b *vector.Batch) {
	if len(a.sums) == 0 && (v.Nulls == nil || a.nulls == nil) {
		return
	}
	for g := range h.numGroups {
		sel, lo, n := h.run(g, b)
		if n == 0 {
			continue
		}
		if v.Nulls != nil {
			k := primitives.SelIsNotNull(h.argSel[lo:], v.Nulls, sel, n)
			if a.nulls != nil {
				a.nulls[g] += int64(n - k)
			}
			if k < n {
				sel, n = h.argSel[lo:lo+k], k
			}
		}
		for _, c := range a.sums {
			c.reduce(g, v, sel, n)
		}
	}
}

// scatter folds argument a's value v into its accumulators row by row at
// the rows' group ids, over the live rows where v is not NULL: every
// accumulator and the NULL count, or after reduceRuns only MIN and MAX.
func (h *HashAggregate) scatter(a *aggArg, v *vector.Vector, b *vector.Batch, runs bool) {
	if runs && len(a.extremes) == 0 {
		return
	}
	sel, n := b.Sel, b.N
	if v.Nulls != nil {
		if !runs && a.nulls != nil {
			k := primitives.SelIsNull(h.argSel, v.Nulls, sel, n)
			primitives.AggCount(a.nulls, h.ids, h.argSel[:k], k)
		}
		if k := primitives.SelIsNotNull(h.argSel, v.Nulls, sel, n); k < n {
			sel, n = h.argSel[:k], k
		}
	}
	if !runs {
		for _, c := range a.sums {
			c.scatter(v, h.ids, sel, n)
		}
	}
	for _, c := range a.extremes {
		c.scatter(v, h.ids, sel, n)
	}
}

// Next implements Operator: first call drains the child, then groups
// stream out in insertion order, a column at a time into one reused
// output batch. With an ordered key the child is drained up to each flush
// and again once the flushed groups are out.
func (h *HashAggregate) Next() (*vector.Batch, error) {
	if err := ctxErr(h.ctx); err != nil {
		return nil, err
	}
	if !h.built && (h.pending == nil || h.outPos == h.numGroups) {
		if h.pending != nil {
			h.forget()
		}
		if err := h.consume(); err != nil {
			return nil, err
		}
	}
	n := min(h.numGroups-h.outPos, h.vecSize)
	if n <= 0 {
		return nil, nil
	}
	h.out.Vecs = outVectors(h.out.Vecs, h.schema, n, h.vecSize)
	if len(h.outIdx) < n {
		h.outIdx = make([]int32, n)
	}
	for k := range h.outIdx[:n] {
		h.outIdx[k] = int32(h.outPos + k)
	}
	for c, kc := range h.keys {
		kc.gather(h.out.Vecs[c], nil, h.outIdx, n)
	}
	for a, o := range h.outs {
		h.emit(o, h.out.Vecs[len(h.keys)+a], h.outPos, n)
	}
	h.outPos += n
	h.out.SetDense(n)
	return &h.out, nil
}

// emit copies aggregate o's results for groups [lo, lo+n) into dst.
func (h *HashAggregate) emit(o aggOut, dst *vector.Vector, lo, n int) {
	switch o.fn {
	case AggCount, AggCountStar:
		for k := range dst.I64[:n] {
			dst.I64[k] = h.count(o.arg, lo+k)
		}
	default:
		switch o.acc.class {
		case vtypes.ClassF64:
			copy(dst.F64[:n], o.acc.f64[lo:])
		case vtypes.ClassStr:
			copy(dst.Str[:n], o.acc.str[lo:])
		default:
			copy(dst.I64[:n], o.acc.i64[lo:])
		}
	}
}

// count is group g's number of rows where arg is not NULL (all of them
// for COUNT(*)).
func (h *HashAggregate) count(arg *aggArg, g int) int64 {
	n := h.rows.i64[g]
	if arg != nil && arg.nulls != nil {
		n -= arg.nulls[g]
	}
	return n
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	if h.sink != nil && len(h.keys) > 0 {
		held := 0
		if h.ordKey >= 0 {
			held = max(h.peak, h.numGroups)
		}
		h.groups.table().record(h.sink, "agg", keysOf(h.groups), held, h.probeNs)
	}
	h.groups, h.keys, h.args, h.accs, h.rows, h.outs, h.out = nil, nil, nil, nil, nil, nil, vector.Batch{}
	h.ids, h.pending = nil, nil
	return h.child.Close()
}

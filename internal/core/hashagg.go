package core

import (
	"context"
	"slices"
	"time"

	"vectorwise/internal/hashtable"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// AggFn names an aggregate function.
type AggFn uint8

// Aggregate functions. Avg decomposes into Sum/Count at output time
// (and the parallelizer rewrites it the same way across the exchange).
const (
	AggSum AggFn = iota
	AggCount
	AggCountStar
	AggMin
	AggMax
	AggAvg
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
	case AggAvg:
		return vtypes.KindF64
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
	sums     []*accum // SUM, and the float sum AVG keeps of an integer
	extremes []*accum // MIN, MAX
	counted  bool     // a COUNT(x) or AVG(x) reads the row count less nulls
	// nulls counts each group's rows where the argument is NULL. It is
	// created when a batch's value first carries a null indicator, so it
	// never exists over NOT NULL data.
	nulls []int64
}

// accum is one accumulator: a slot per group. fn is AggSum, AggMin or
// AggMax over the argument, AggAvg for the float sum of an integer
// argument (a DOUBLE AVG reads its argument's AggSum), or AggCountStar
// for the row count.
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
	acc *accum  // SUM, MIN, MAX; AVG's sum
	arg *aggArg // COUNT(x), AVG(x): whose NULLs the row count excludes
}

// grow adds n groups' slots.
func (c *accum) grow(n int) {
	switch c.class {
	case vtypes.ClassF64:
		c.f64 = extend(c.f64, n)
	case vtypes.ClassStr:
		c.str = extend(c.str, n)
	default:
		c.i64 = extend(c.i64, n)
	}
	if c.fn == AggMin || c.fn == AggMax {
		c.seen = extend(c.seen, n)
	}
}

// extend appends n zero slots, at least doubling a slice too small for
// them: the accumulators stay flat for the Agg* kernels, and append's own
// growth would copy a large slice again for every 25 % it gains.
func extend[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(len(s), n, 64))
	}
	return append(s, make([]T, n)...)
}

// reduce adds the run sel[:n] of group g's rows to slot g (sums only).
func (c *accum) reduce(g int, v *vector.Vector, sel []int32, n int) {
	switch {
	case c.fn == AggAvg:
		c.f64[g] += primitives.ReduceSum[float64](v.I64, sel, n)
	case c.class == vtypes.ClassF64:
		c.f64[g] += primitives.ReduceSum[float64](v.F64, sel, n)
	default:
		c.i64[g] += primitives.ReduceSum[int64](v.I64, sel, n)
	}
}

// scatter folds each live row into its group's slot.
func (c *accum) scatter(v *vector.Vector, groups []uint32, sel []int32, n int) {
	switch c.fn {
	case AggAvg:
		primitives.AggSum(c.f64, groups, v.I64, sel, n)
	case AggSum:
		if c.class == vtypes.ClassF64 {
			primitives.AggSum(c.f64, groups, v.F64, sel, n)
		} else {
			primitives.AggSum(c.i64, groups, v.I64, sel, n)
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

// HashAggregate implements vectorized grouped aggregation: each input
// batch is translated to a dense group-id vector via the shared
// open-addressing hash table (one batched FindOrInsert per vector),
// then each distinct argument is evaluated once and folded into
// columnar accumulators, one per distinct piece of aggregate work. With
// at most smallGroups groups the batch is ordered by group and a sum
// adds each group's run once; otherwise one Agg* kernel per accumulator
// scatters the batch.
type HashAggregate struct {
	child     Operator
	groupBy   []Expr
	aggs      []AggSpec
	schema    *vtypes.Schema
	vecSize   int
	smallMax  int // smallGroups; tests move it to run either flavour
	keys      []*colBuf
	args      []*aggArg
	accs      []*accum // every accumulator, grown together
	rows      *accum   // the row count; nil when no aggregate counts
	outs      []aggOut // one per aggregate
	extremes  bool     // some aggregate is MIN or MAX
	ht        *hashtable.Table
	numGroups int

	hashes  []uint64
	groups  []uint32
	part    []int32          // the batch's live rows ordered by group
	offs    []int32          // group g's rows are part[offs[g]:offs[g+1]]
	keyVecs []*vector.Vector // per-batch key columns, hoisted (reused)
	newRows []int32          // rows of the groups addGroup numbered that storeGroups has not stored
	argSel  []int32          // live rows whose aggregate argument is (not) NULL
	outIdx  []int32          // group ids of the batch being emitted
	out     vector.Batch
	eqFn    hashtable.EqFn
	allocFn hashtable.NewFn
	sink    *HashStatsSink
	probeNs int64 // cumulative FindOrInsert time (agg_probe_ns)
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

// SetPartial marks this aggregate as a parallel partial (see the
// partial field).
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
	h := &HashAggregate{
		child: child, groupBy: groupBy, aggs: aggs,
		schema:   &vtypes.Schema{Cols: cols},
		vecSize:  vector.DefaultSize,
		smallMax: smallGroups,
	}
	return h
}

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
	h.keys, _ = keyColBufs(h.groupBy, nil)
	h.args, h.accs, h.rows, h.extremes = nil, nil, nil, false
	h.outs = make([]aggOut, len(h.aggs))
	for i, a := range h.aggs {
		h.outs[i] = h.plan(a)
	}
	h.ht = hashtable.New(0)
	h.keyVecs = make([]*vector.Vector, len(h.groupBy))
	h.eqFn = h.eqBatch
	h.allocFn = h.addGroup
	h.numGroups = 0
	if len(h.groupBy) == 0 {
		// Single implicit group.
		h.numGroups = 1
		for _, c := range h.accs {
			c.grow(1)
		}
	}
	h.probeNs = 0
	h.built = false
	h.outPos = 0
	h.inRows = 0
	return nil
}

// plan finds or creates what aggregate a reads: the row count for every
// COUNT and AVG, one argument per distinct Arg, and per argument one
// accumulator per function, which a DOUBLE AVG shares with SUM.
func (h *HashAggregate) plan(a AggSpec) aggOut {
	o := aggOut{fn: a.Fn}
	if (a.Fn == AggCountStar || a.Fn == AggCount || a.Fn == AggAvg) && h.rows == nil {
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
	fn, class := a.Fn, a.Arg.Kind().StorageClass()
	switch {
	case a.Fn == AggCount:
		o.arg.counted = true
		return o
	case a.Fn == AggAvg && class == vtypes.ClassF64:
		o.arg.counted, fn = true, AggSum
	case a.Fn == AggAvg:
		o.arg.counted, class = true, vtypes.ClassF64
	}
	list := &o.arg.sums
	if fn == AggMin || fn == AggMax {
		list, h.extremes = &o.arg.extremes, true
	}
	for _, c := range *list {
		if c.fn == fn {
			o.acc = c
			return o
		}
	}
	o.acc = &accum{fn: fn, class: class}
	*list = append(*list, o.acc)
	h.accs = append(h.accs, o.acc)
	return o
}

// consume drains the child, building groups and accumulators.
func (h *HashAggregate) consume() error {
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
			if h.partial && len(h.groupBy) == 0 && h.inRows == 0 {
				h.numGroups = 0 // empty partial: no implicit group
			}
			return nil
		}
		if b.N == 0 {
			continue
		}
		h.inRows += int64(b.N)
		if err := h.consumeBatch(b); err != nil {
			return err
		}
	}
}

func (h *HashAggregate) consumeBatch(b *vector.Batch) error {
	capn := b.Capacity()
	grouped := len(h.groupBy) > 0
	if (grouped || h.extremes) && cap(h.groups) < capn {
		h.groups = make([]uint32, capn) // ungrouped, every id stays 0
	}
	if grouped {
		if cap(h.hashes) < capn {
			h.hashes, h.newRows = make([]uint64, capn), make([]int32, 0, capn)
		}
		hashes := h.hashes[:capn]
		for i, g := range h.groupBy {
			v, err := g.Eval(b)
			if err != nil {
				return err
			}
			h.keyVecs[i] = v
		}
		// Vectorized hash of the key columns.
		for i, v := range h.keyVecs {
			if i == 0 {
				hashVec(hashes, v, b.Sel, b.N)
			} else {
				rehashVec(hashes, v, b.Sel, b.N)
			}
		}
		// Translate rows to group ids: one batched table lookup per
		// vector, with key verification and new-group allocation
		// running through the callbacks below.
		start := time.Now()
		h.ht.FindOrInsert(hashes, b.Sel, b.N, h.groups[:capn], h.eqFn, h.allocFn)
		h.storeGroups()
		h.probeNs += time.Since(start).Nanoseconds()
	}

	// Few groups: order the batch's rows by group so that each group's
	// rows are one run (ungrouped, the batch is the run), counted and
	// summed once per batch. Many groups: scatter row by row.
	runs := !grouped || h.numGroups <= h.smallMax
	if runs && grouped {
		if cap(h.part) < capn {
			h.part = make([]int32, capn)
		}
		if need := primitives.PartitionLanes * h.numGroups; len(h.offs) < need {
			h.offs = make([]int32, max(2*need, primitives.PartitionLanes*smallGroups))
		}
		primitives.PartitionGroups(h.part, h.offs, h.groups, h.numGroups, b.Sel, b.N)
	}
	if h.rows != nil {
		if runs {
			for g := range h.numGroups {
				_, _, n := h.run(g, b)
				h.rows.i64[g] += int64(n)
			}
		} else {
			primitives.AggCount(h.rows.i64, h.groups, b.Sel, b.N)
		}
	}
	for _, a := range h.args {
		v, err := a.expr.Eval(b)
		if err != nil {
			return err
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
	if len(h.groupBy) == 0 {
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
			primitives.AggCount(a.nulls, h.groups, h.argSel[:k], k)
		}
		if k := primitives.SelIsNotNull(h.argSel, v.Nulls, sel, n); k < n {
			sel, n = h.argSel[:k], k
		}
	}
	if !runs {
		for _, c := range a.sums {
			c.scatter(v, h.groups, sel, n)
		}
	}
	for _, c := range a.extremes {
		c.scatter(v, h.groups, sel, n)
	}
}

// eqBatch is the table's key-verification callback: column-major
// comparison of each candidate probe row against its candidate group's
// stored keys (rows already missed by an earlier column are skipped). A
// candidate may be a group an earlier row of the same batch created, so
// the batch's new groups are stored first.
func (h *HashAggregate) eqBatch(rows []int32, vals []uint32, miss []bool, n int) {
	h.storeGroups()
	for c, kc := range h.keys {
		kc.markUnequal(h.keyVecs[c], rows, vals, miss, n)
	}
}

// addGroup is the table's new-key callback: it numbers row i's group
// and leaves storing it to storeGroups.
func (h *HashAggregate) addGroup(i int32) uint32 {
	h.newRows = append(h.newRows, i)
	h.numGroups++
	return uint32(h.numGroups - 1)
}

// storeGroups stores the groups addGroup numbered since it last ran: their
// keys with one append per key column, and their slots with one extension
// per accumulator and NULL count.
func (h *HashAggregate) storeGroups() {
	n := len(h.newRows)
	if n == 0 {
		return
	}
	for c, kc := range h.keys {
		kc.append(h.keyVecs[c], h.newRows, n)
	}
	for _, c := range h.accs {
		c.grow(n)
	}
	for _, a := range h.args {
		if a.nulls != nil {
			a.nulls = extend(a.nulls, n)
		}
	}
	h.newRows = h.newRows[:0]
}

func hashVec(dst []uint64, v *vector.Vector, sel []int32, n int) {
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		primitives.HashI64(dst, v.I64, sel, n)
	case vtypes.ClassF64:
		primitives.HashF64(dst, v.F64, sel, n)
	case vtypes.ClassStr:
		primitives.HashStr(dst, v.Str, sel, n)
	case vtypes.ClassBool:
		primitives.HashBool(dst, v.B, sel, n)
	}
}

func rehashVec(dst []uint64, v *vector.Vector, sel []int32, n int) {
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		primitives.RehashI64(dst, v.I64, sel, n)
	case vtypes.ClassF64:
		primitives.RehashF64(dst, v.F64, sel, n)
	case vtypes.ClassStr:
		primitives.RehashStr(dst, v.Str, sel, n)
	case vtypes.ClassBool:
		primitives.RehashBool(dst, v.B, sel, n)
	}
}

// Next implements Operator: first call drains the child, then groups
// stream out in insertion order, a column at a time into one reused
// output batch.
func (h *HashAggregate) Next() (*vector.Batch, error) {
	if err := ctxErr(h.ctx); err != nil {
		return nil, err
	}
	if !h.built {
		if err := h.consume(); err != nil {
			return nil, err
		}
		h.built = true
	}
	n := min(h.numGroups-h.outPos, h.vecSize)
	if n <= 0 {
		return nil, nil
	}
	h.out.Vecs = outVectors(h.out.Vecs, h.schema, h.vecSize)
	if h.outIdx == nil {
		h.outIdx = make([]int32, h.vecSize)
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
	case AggAvg:
		for k := range dst.F64[:n] {
			dst.F64[k] = 0
			if cnt := h.count(o.arg, lo+k); cnt != 0 {
				dst.F64[k] = o.acc.f64[lo+k] / float64(cnt)
			}
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
	if h.sink != nil && h.ht != nil && len(h.groupBy) > 0 {
		h.sink.Record("agg", h.ht.Stats(), h.probeNs)
	}
	h.keys, h.args, h.accs, h.rows, h.outs, h.ht, h.out = nil, nil, nil, nil, nil, nil, vector.Batch{}
	return h.child.Close()
}

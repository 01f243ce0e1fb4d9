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
// (nil for COUNT(*)).
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

// aggState holds one aggregate's accumulators across all groups.
type aggState struct {
	spec AggSpec
	i64  []int64
	f64  []float64
	str  []string
	cnt  []int64 // Avg's count side
	seen []bool  // Min/Max initialization
}

// grow adds one group's accumulator slot.
func (a *aggState) grow() {
	switch a.spec.Fn {
	case AggCount, AggCountStar:
		a.i64 = extend(a.i64)
	case AggAvg:
		a.f64, a.cnt = extend(a.f64), extend(a.cnt)
	case AggSum:
		if a.spec.Arg.Kind().StorageClass() == vtypes.ClassF64 {
			a.f64 = extend(a.f64)
		} else {
			a.i64 = extend(a.i64)
		}
	case AggMin, AggMax:
		a.seen = extend(a.seen)
		switch a.spec.Arg.Kind().StorageClass() {
		case vtypes.ClassF64:
			a.f64 = extend(a.f64)
		case vtypes.ClassStr:
			a.str = extend(a.str)
		default:
			a.i64 = extend(a.i64)
		}
	}
}

// extend appends one zero slot, doubling a full slice: the accumulators
// stay flat for the Agg* kernels, and append's own growth would copy a
// large slice again for every 25 % it gains.
func extend[T any](s []T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 64))
	}
	var zero T
	return append(s, zero)
}

// HashAggregate implements vectorized grouped aggregation: each input
// batch is translated to a dense group-id vector via the shared
// open-addressing hash table (one batched FindOrInsert per vector),
// then one Agg* kernel per aggregate updates columnar accumulators.
// Grouping and aggregation both run one kernel per vector.
type HashAggregate struct {
	child     Operator
	groupBy   []Expr
	aggs      []AggSpec
	schema    *vtypes.Schema
	vecSize   int
	keys      []*colBuf
	states    []*aggState
	ht        *hashtable.Table
	numGroups int

	hashes  []uint64
	groups  []uint32
	keyVecs []*vector.Vector // per-batch key columns, hoisted (reused)
	one     [1]int32         // the row addGroup stores
	argSel  []int32          // live rows whose aggregate argument is not NULL
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
		schema:  &vtypes.Schema{Cols: cols},
		vecSize: vector.DefaultSize,
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
	h.states = make([]*aggState, len(h.aggs))
	for i, a := range h.aggs {
		h.states[i] = &aggState{spec: a}
	}
	h.ht = hashtable.New(0)
	h.keyVecs = make([]*vector.Vector, len(h.groupBy))
	h.eqFn = h.eqBatch
	h.allocFn = h.addGroup
	h.numGroups = 0
	h.probeNs = 0
	h.built = false
	h.outPos = 0
	h.inRows = 0
	return nil
}

// consume drains the child, building groups and accumulators.
func (h *HashAggregate) consume() error {
	if len(h.groupBy) == 0 {
		// Single implicit group.
		h.numGroups = 1
		for _, st := range h.states {
			st.grow()
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
	if cap(h.hashes) < capn {
		h.hashes = make([]uint64, capn)
		h.groups = make([]uint32, capn)
	}
	hashes := h.hashes[:capn]
	groups := h.groups[:capn]

	if len(h.groupBy) > 0 {
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
		h.ht.FindOrInsert(hashes, b.Sel, b.N, groups, h.eqFn, h.allocFn)
		h.probeNs += time.Since(start).Nanoseconds()
	} else {
		// Ungrouped: every row belongs to group 0; groups is zeroed.
		if b.Sel == nil {
			for i := 0; i < b.N; i++ {
				groups[i] = 0
			}
		} else {
			for _, i := range b.Sel[:b.N] {
				groups[i] = 0
			}
		}
	}

	// Fire the aggregate kernels, each over the rows whose argument is
	// not NULL: all live rows unless the argument carries an indicator.
	for _, st := range h.states {
		var arg *vector.Vector
		sel, n := b.Sel, b.N
		if st.spec.Arg != nil {
			v, err := st.spec.Arg.Eval(b)
			if err != nil {
				return err
			}
			if arg = v; arg.Nulls != nil {
				if cap(h.argSel) < capn {
					h.argSel = make([]int32, capn)
				}
				if k := primitives.SelIsNotNull(h.argSel[:capn], arg.Nulls, sel, n); k < n {
					sel, n = h.argSel[:k], k
				}
			}
		}
		switch st.spec.Fn {
		case AggCount, AggCountStar:
			primitives.AggCount(st.i64, groups, sel, n)
		case AggSum:
			if arg.Kind.StorageClass() == vtypes.ClassF64 {
				primitives.AggSum(st.f64, groups, arg.F64, sel, n)
			} else {
				primitives.AggSum(st.i64, groups, arg.I64, sel, n)
			}
		case AggAvg:
			if arg.Kind.StorageClass() == vtypes.ClassF64 {
				primitives.AggSum(st.f64, groups, arg.F64, sel, n)
			} else {
				// Widen integers through a cast-free running float sum.
				if sel == nil {
					for i := 0; i < n; i++ {
						st.f64[groups[i]] += float64(arg.I64[i])
					}
				} else {
					for _, i := range sel[:n] {
						st.f64[groups[i]] += float64(arg.I64[i])
					}
				}
			}
			primitives.AggCount(st.cnt, groups, sel, n)
		case AggMin:
			switch arg.Kind.StorageClass() {
			case vtypes.ClassF64:
				primitives.AggMin(st.f64, st.seen, groups, arg.F64, sel, n)
			case vtypes.ClassStr:
				primitives.AggMin(st.str, st.seen, groups, arg.Str, sel, n)
			default:
				primitives.AggMin(st.i64, st.seen, groups, arg.I64, sel, n)
			}
		case AggMax:
			switch arg.Kind.StorageClass() {
			case vtypes.ClassF64:
				primitives.AggMax(st.f64, st.seen, groups, arg.F64, sel, n)
			case vtypes.ClassStr:
				primitives.AggMax(st.str, st.seen, groups, arg.Str, sel, n)
			default:
				primitives.AggMax(st.i64, st.seen, groups, arg.I64, sel, n)
			}
		}
	}
	return nil
}

// eqBatch is the table's key-verification callback: column-major
// comparison of each candidate probe row against its candidate group's
// stored keys (rows already missed by an earlier column are skipped).
func (h *HashAggregate) eqBatch(rows []int32, vals []uint32, miss []bool, n int) {
	for c, kc := range h.keys {
		kc.markUnequal(h.keyVecs[c], rows, vals, miss, n)
	}
}

// addGroup is the table's new-key callback: it appends the row's keys
// and one accumulator slot per aggregate, returning the new group id.
func (h *HashAggregate) addGroup(i int32) uint32 {
	gid := h.numGroups
	h.numGroups++
	h.one[0] = i
	for c, kc := range h.keys {
		kc.append(h.keyVecs[c], h.one[:], 1)
	}
	for _, st := range h.states {
		st.grow()
	}
	return uint32(gid)
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
	for a, st := range h.states {
		st.emit(h.out.Vecs[len(h.keys)+a], h.outPos, n)
	}
	h.outPos += n
	h.out.SetDense(n)
	return &h.out, nil
}

// emit copies the accumulators of groups [lo, lo+n) into dst.
func (a *aggState) emit(dst *vector.Vector, lo, n int) {
	switch {
	case a.spec.Fn == AggAvg:
		for k := range dst.F64[:n] {
			dst.F64[k] = 0
			if cnt := a.cnt[lo+k]; cnt != 0 {
				dst.F64[k] = a.f64[lo+k] / float64(cnt)
			}
		}
	case a.f64 != nil:
		copy(dst.F64[:n], a.f64[lo:])
	case a.str != nil:
		copy(dst.Str[:n], a.str[lo:])
	default:
		copy(dst.I64[:n], a.i64[lo:])
	}
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	if h.sink != nil && h.ht != nil && len(h.groupBy) > 0 {
		h.sink.Record("agg", h.ht.Stats(), h.probeNs)
	}
	h.keys, h.states, h.ht, h.out = nil, nil, nil, vector.Batch{}
	return h.child.Close()
}

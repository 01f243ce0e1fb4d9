package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"vectorwise/internal/hashtable"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// JoinType selects join semantics.
type JoinType uint8

// Join types.
const (
	// JoinInner emits probe⋈build matches.
	JoinInner JoinType = iota
	// JoinLeftSemi emits each probe row with ≥1 match, once.
	JoinLeftSemi
	// JoinLeftAnti emits each probe row with no match.
	JoinLeftAnti
	// JoinLeftOuter emits matches plus unmatched probe rows, NULL-extended.
	JoinLeftOuter
)

// HashJoin joins a streaming probe side (left child) against a
// materialized build side (right child), consumed fully on first Next: a
// batch's rows append to columnar buffers and its distinct keys insert
// into the shared open-addressing table (one batched FindOrInsert per
// vector). An inner or left-outer join stores every build row — a key
// that is a plain column reference shares its payload column's buffer —
// and chains rows sharing a key off the key's first row in build order; a
// semi or anti join stores one key row per distinct key and nothing
// else. A NULL key never matches: build rows with one are not stored,
// probe rows with one are misses.
//
// Probing runs one hash kernel plus one batched table lookup per probe
// vector, then emits at most vecSize matches per Next, resuming the probe
// batch (and a long duplicate chain) on the next call. While the matches
// of an output batch ascend strictly in probe position — no probe row
// matched twice: FK→PK joins, semi and anti always — the output is the
// probe vectors as they are under the match positions as selection
// vector, and only build columns are gathered, scattered to those
// positions. A batch in which a probe row fans out gathers both sides.
//
// BuildLeft turns a semi, anti or left outer join around for a left
// input smaller than the right: the left rows are the build side, stored
// whole (NULL keys too: they match nothing, which decides their fate),
// every right row that finds its key marks the build rows it matches —
// an outer join emits them as it goes, left columns first — and once the
// right is exhausted the build rows stream out by their mark: marked
// (semi), unmarked (anti; outer, under NULL right columns).
//
// Merge joins two inputs that both arrive in key order without hashing:
// the build appends and chains its rows as above, a row whose key equals
// the one before it chaining behind it, and a cursor that only moves
// forward across probe batches resolves each probe row to the first build
// row of its key. kids, the chains, the marks and emit are the hash
// path's.
type HashJoin struct {
	probe, build         Operator
	probeKeys, buildKeys []Expr
	typ                  JoinType
	schema               *vtypes.Schema
	vecSize              int

	cols      []*colBuf // build payload columns (inner, left outer)
	keyC      []*colBuf // build key columns
	keyShared []bool    // keyC[i] is one of cols
	ht        *hashtable.Table
	next      [][]int32 // chunked, per build row: next row with the same key, -1 ends
	tail      [][]int32 // chunked, per first row of a key: last row of its chain
	built     bool
	buildLeft bool
	merge     bool   // see Merge
	cursor    int    // merge: the build row (semi, anti: key) the probe has reached
	prev      int64  // merge: the last key merged, build side then probe side
	seen      bool   // merge: prev holds a key of the side being merged
	matched   []bool // BuildLeft, per build row: a probe row matched it
	kept      int    // BuildLeft: build rows streamed out after the probe
	po, bo    int    // where probe and build columns start in the output

	hashes   []uint64
	kids     []int32          // per probe row: first build row of its key (semi/anti: key id) or -1
	keyVecs  []*vector.Vector // current batch's key columns (build, then probe)
	keySel   []int32          // live rows with no NULL key
	rowOf    []int32          // build phase: batch row -> build row id
	seq, neg []int32          // build phase: the batch's build row ids, and all -1: tail's and next's initial values
	fik      []uint32         // build phase: FindOrInsert output
	newKeys  []int32          // semi/anti build: rows of the keys allocKey numbered that storeKeys has not stored
	eqFn     hashtable.EqFn
	allocFn  hashtable.NewFn
	sink     *HashStatsSink
	buildNs  int64 // build-side materialization time (join_build_ns)

	// Emission state: cur is the probe batch being emitted, pi the next
	// of its live rows, chain the build row a fan-out was cut at.
	cur      *vector.Batch
	pi       int
	chain    int32
	probeIdx []int32 // match list of the batch being emitted; the output's Sel when probe vectors pass through
	buildIdx []int32 // -1 for outer-null rows
	out      vector.Batch
	ownProbe []*vector.Vector // fan-out path: gathered probe columns
	ownBuild []*vector.Vector // gathered build columns
	done     bool
	ctx      context.Context
}

// NewHashJoin constructs the join. probeKeys and buildKeys must align in
// count and storage class.
func NewHashJoin(probe, build Operator, probeKeys, buildKeys []Expr, typ JoinType) (*HashJoin, error) {
	if len(probeKeys) != len(buildKeys) || len(probeKeys) == 0 {
		return nil, fmt.Errorf("core: join needs matching key lists")
	}
	for i := range probeKeys {
		if probeKeys[i].Kind().StorageClass() != buildKeys[i].Kind().StorageClass() {
			return nil, fmt.Errorf("core: join key %d: %v vs %v", i, probeKeys[i].Kind(), buildKeys[i].Kind())
		}
	}
	var cols []vtypes.Column
	cols = append(cols, probe.Schema().Cols...)
	if typ == JoinInner || typ == JoinLeftOuter {
		for _, c := range build.Schema().Cols {
			oc := c
			if typ == JoinLeftOuter {
				oc.Nullable = true
			}
			cols = append(cols, oc)
		}
	}
	return &HashJoin{
		probe: probe, build: build,
		probeKeys: probeKeys, buildKeys: buildKeys, typ: typ,
		schema:  &vtypes.Schema{Cols: cols},
		vecSize: vector.DefaultSize,
	}, nil
}

// Schema implements Operator.
func (j *HashJoin) Schema() *vtypes.Schema { return j.schema }

// SetContext implements ContextSetter.
func (j *HashJoin) SetContext(ctx context.Context) { j.ctx = ctx }

// SetStatsSink directs this operator's table stats to sink on Close.
func (j *HashJoin) SetStatsSink(s *HashStatsSink) { j.sink = s }

// BuildLeft makes the left input the build side (see HashJoin). Only a
// semi, anti or left outer join may, before Open.
func (j *HashJoin) BuildLeft() {
	j.probe, j.build, j.probeKeys, j.buildKeys = j.build, j.probe, j.buildKeys, j.probeKeys
	j.buildLeft = true
}

// Merge makes the join resolve keys by a merge of its inputs (see
// HashJoin), before Open. The caller vouches that there is one BIGINT or
// DATE key and that neither side's key ever decreases or is NULL; a
// batch that breaks the order fails the join with errUnordered.
func (j *HashJoin) Merge() { j.merge = true }

// errUnordered reports an input that an order-dependent operator was
// promised in key order, out of it: a bug in the promise, never in data.
var errUnordered = errors.New("core: input promised in key order is not")

// Open implements Operator.
func (j *HashJoin) Open() error {
	if err := j.probe.Open(); err != nil {
		return err
	}
	return j.build.Open()
}

// payload reports whether build rows reach the output.
func (j *HashJoin) payload() bool {
	return j.typ == JoinInner || j.typ == JoinLeftOuter || j.buildLeft
}

// evalKeys evaluates keys over b into keyVecs and, unless the join
// merges, hashes the rows that can match — those with no NULL key —
// returning them as (sel, n).
func (j *HashJoin) evalKeys(keys []Expr, b *vector.Batch) ([]int32, int, error) {
	for i, e := range keys {
		v, err := e.Eval(b)
		if err != nil {
			return nil, 0, err
		}
		j.keyVecs[i] = v
	}
	capn := b.Capacity()
	if cap(j.hashes) < capn {
		j.hashes, j.keySel, j.kids = make([]uint64, capn), make([]int32, capn), make([]int32, capn)
	}
	sel, n := b.Sel, b.N
	for _, v := range j.keyVecs {
		if v.Nulls == nil {
			continue
		}
		if k := primitives.SelIsNotNull(j.keySel[:capn], v.Nulls, sel, n); k < n {
			sel, n = j.keySel[:k], k
		}
	}
	if j.merge {
		return sel, n, nil
	}
	for i, v := range j.keyVecs {
		if i == 0 {
			hashVec(j.hashes[:capn], v, sel, n)
		} else {
			rehashVec(j.hashes[:capn], v, sel, n)
		}
	}
	return sel, n, nil
}

// buildTable materializes the build side (see HashJoin).
func (j *HashJoin) buildTable() error {
	start := time.Now()
	if j.payload() {
		j.cols = newColBufs(j.build.Schema())
	}
	j.keyC, j.keyShared = keyColBufs(j.buildKeys, j.cols)
	if !j.merge {
		j.ht = hashtable.New(0)
	}
	j.keyVecs = make([]*vector.Vector, len(j.buildKeys))
	j.eqFn = j.eqBuild
	j.allocFn = j.allocKey
	for {
		// Cancellation point in the build phase, before probing starts.
		if err := ctxErr(j.ctx); err != nil {
			return err
		}
		b, err := j.build.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if b.N == 0 {
			continue
		}
		sel, n, err := j.evalKeys(j.buildKeys, b)
		if err != nil {
			return err
		}
		if capn := b.Capacity(); cap(j.fik) < capn {
			j.rowOf, j.seq, j.neg = make([]int32, capn), make([]int32, capn), slices.Repeat([]int32{-1}, capn)
			j.fik, j.newKeys = make([]uint32, capn), make([]int32, 0, capn)
		}
		if j.payload() {
			// Append the batch's rows densely; remember each batch
			// position's build row id for the insert callback and the
			// chaining below.
			ssel, sn := sel, n
			if j.buildLeft {
				ssel, sn = b.Sel, b.N // kept rows are stored NULL key or not
			}
			base := int32(j.keyC[0].n) // build rows stored so far
			for c, buf := range j.cols {
				buf.append(b.Vecs[c], ssel, sn)
			}
			for c, buf := range j.keyC {
				if !j.keyShared[c] {
					buf.append(j.keyVecs[c], ssel, sn)
				}
			}
			for k := 0; k < sn; k++ {
				j.seq[k] = base + int32(k)
				j.rowOf[liveAt(ssel, k)] = base + int32(k)
			}
			j.next = appendChunks(j.next, int(base), j.neg, nil, sn)
			if !j.merge {
				j.tail = appendChunks(j.tail, int(base), j.seq, nil, sn)
			}
		}
		if j.merge {
			if err := j.mergeBuild(sel, n, b.N); err != nil {
				return err
			}
			continue
		}
		// One batched insert for the vector; then chain duplicate-key
		// rows in batch order behind their key's first row.
		j.ht.FindOrInsert(j.hashes, sel, n, j.fik, j.eqFn, j.allocFn)
		j.storeKeys()
		if j.payload() {
			for k := 0; k < n; k++ {
				i := liveAt(sel, k)
				if head, r := j.fik[i], j.rowOf[i]; int32(head) != r {
					last := chunkPtr(j.tail, head)
					*chunkPtr(j.next, uint32(*last)) = r
					*last = r
				}
			}
		}
	}
	if j.ht != nil {
		j.ht.Settle() // from here on the table only serves probes
	}
	j.seen = false // the probe side's order starts over
	j.tail, j.out.Vecs = nil, make([]*vector.Vector, j.schema.Len())
	j.po, j.bo = 0, j.probe.Schema().Len()
	if j.buildLeft {
		j.po, j.bo, j.matched = j.build.Schema().Len(), 0, make([]bool, j.keyC[0].n)
	}
	j.buildNs = time.Since(start).Nanoseconds()
	return nil
}

// mergeBuild is a merge join's build of the batch rows sel[:n] of live
// rows, whose keys must continue the order of the rows before them: a
// row whose key equals the previous row's chains behind it, and a semi or
// anti join stores only each key's first row. A NULL key fails the join:
// it would break the rows' adjacency.
func (j *HashJoin) mergeBuild(sel []int32, n, live int) error {
	if n < live {
		return errUnordered
	}
	keys := j.keyVecs[0].I64
	for k := 0; k < n; k++ {
		i := liveAt(sel, k)
		key := keys[i]
		if j.seen && key <= j.prev {
			if key < j.prev {
				return errUnordered
			}
			if j.payload() {
				r := j.rowOf[i]
				*chunkPtr(j.next, uint32(r-1)) = r
			}
			continue
		}
		j.prev, j.seen = key, true
		if !j.payload() {
			j.newKeys = append(j.newKeys, int32(i))
		}
	}
	j.storeKeys()
	return nil
}

// mergeProbe resolves the probe rows sel[:n] as Find would, by moving the
// cursor forward over the stored build keys to each row's key. Probe keys
// must not decrease, within a batch or across batches, so the cursor never
// moves back and a whole probe walks the build keys once.
func (j *HashJoin) mergeProbe(sel []int32, n int) error {
	keys, built := j.keyVecs[0].I64, j.keyC[0]
	c := j.cursor
	for k := 0; k < n; k++ {
		i := liveAt(sel, k)
		key := keys[i]
		if j.seen && key < j.prev {
			return errUnordered
		}
		j.prev, j.seen = key, true
		for c < built.n && chunkAt(built.i64, uint32(c)) < key {
			c++
		}
		j.kids[i] = -1
		if c < built.n && chunkAt(built.i64, uint32(c)) == key {
			j.kids[i] = int32(c)
		}
	}
	j.cursor = c
	return nil
}

// eqBuild verifies candidate batch rows against the stored key row the
// table holds for them, column-major over the key columns. A semi or anti
// build's candidate may be a key an earlier row of the same batch
// introduced, so the batch's new keys are stored first.
func (j *HashJoin) eqBuild(rows []int32, vals []uint32, miss []bool, n int) {
	j.storeKeys()
	for c, kc := range j.keyC {
		kc.markUnequal(j.keyVecs[c], rows, vals, miss, n)
	}
}

// allocKey registers a first-seen build key. With a payload the key is
// the claiming row, already stored; a semi or anti join numbers the key
// and leaves storing it, and only it, to storeKeys.
func (j *HashJoin) allocKey(i int32) uint32 {
	if j.payload() {
		return uint32(j.rowOf[i])
	}
	j.newKeys = append(j.newKeys, i)
	return uint32(j.keyC[0].n + len(j.newKeys) - 1)
}

// storeKeys stores the keys allocKey numbered since it last ran, one
// append per key column.
func (j *HashJoin) storeKeys() {
	if n := len(j.newKeys); n > 0 {
		for c, kc := range j.keyC {
			kc.append(j.keyVecs[c], j.newKeys, n)
		}
		j.newKeys = j.newKeys[:0]
	}
}

// Next implements Operator.
func (j *HashJoin) Next() (*vector.Batch, error) {
	if !j.built {
		if err := j.buildTable(); err != nil {
			return nil, err
		}
		j.built = true
	}
	for {
		// Polled between emitted batches as well as between probe
		// batches: a fan-out join can emit for a long time from one.
		if err := ctxErr(j.ctx); err != nil {
			return nil, err
		}
		if j.cur != nil {
			if out := j.emit(); out != nil {
				return out, nil
			}
			j.cur = nil
		}
		if j.done {
			return j.emitKept(), nil
		}
		b, err := j.probe.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.done, j.ownProbe = true, nil
			continue
		}
		if b.N == 0 {
			continue
		}
		if err := j.probeBatch(b); err != nil {
			return nil, err
		}
	}
}

// probeBatch looks one probe batch up: one hash-kernel pass and one
// batched table lookup translate every live row to the first build row
// of its key, or -1. emit then walks the matches.
func (j *HashJoin) probeBatch(b *vector.Batch) error {
	sel, n, err := j.evalKeys(j.probeKeys, b)
	if err != nil {
		return err
	}
	if n < b.N { // rows with a NULL key are misses
		for k := 0; k < b.N; k++ {
			j.kids[b.LiveIndex(k)] = -1
		}
	}
	if j.merge {
		if err := j.mergeProbe(sel, n); err != nil {
			return err
		}
	} else {
		j.ht.Find(j.hashes, sel, n, j.kids, j.eqFn)
	}
	j.cur, j.pi, j.chain = b, 0, -1
	return nil
}

// emit produces the next output batch of the current probe batch — at
// most vecSize matches, continuing where the previous call stopped — or
// nil when the probe batch is exhausted.
func (j *HashJoin) emit() *vector.Batch {
	b, kids := j.cur, j.kids
	probeIdx, buildIdx := j.probeIdx[:0], j.buildIdx[:0]
	fanout := false
	for j.pi < b.N && len(probeIdx) < j.vecSize {
		i := int32(b.LiveIndex(j.pi))
		kid := kids[i]
		switch {
		case j.buildLeft && j.typ != JoinLeftOuter:
			// Mark the key's rows; a marked first row means all are.
			for r := kid; r >= 0 && !j.matched[r]; r = chunkAt(j.next, uint32(r)) {
				j.matched[r] = true
			}
		case j.typ == JoinLeftSemi || j.typ == JoinLeftAnti:
			if (kid >= 0) == (j.typ == JoinLeftSemi) {
				probeIdx = append(probeIdx, i)
			}
		case kid < 0:
			if j.typ == JoinLeftOuter && !j.buildLeft {
				probeIdx = append(probeIdx, i)
				buildIdx = append(buildIdx, -1)
			}
		default:
			r := kid
			if j.chain >= 0 {
				r = j.chain // resume a chain the previous batch cut
			}
			for first := true; r >= 0 && len(probeIdx) < j.vecSize; r, first = chunkAt(j.next, uint32(r)), false {
				probeIdx = append(probeIdx, i)
				buildIdx = append(buildIdx, r)
				fanout = fanout || !first
				if j.buildLeft {
					j.matched[r] = true
				}
			}
			if j.chain = r; r >= 0 {
				continue // output full mid-chain: same probe row next time
			}
		}
		j.pi++
	}
	j.probeIdx, j.buildIdx = probeIdx, buildIdx
	n := len(probeIdx)
	if n == 0 {
		return nil
	}
	if fanout {
		j.ownProbe = outVectors(j.ownProbe, j.probe.Schema(), j.vecSize)
		for c, v := range b.Vecs {
			j.ownProbe[c].GatherFrom(v, probeIdx)
		}
		copy(j.out.Vecs[j.po:], j.ownProbe)
		j.out.SetDense(n)
	} else {
		copy(j.out.Vecs[j.po:], b.Vecs)
		j.out.SetSel(probeIdx, n)
		if b.Sel == nil && n == b.N {
			j.out.SetDense(n) // every row of a dense batch matched once
		}
	}
	if j.payload() {
		j.ownBuild = outVectors(j.ownBuild, j.build.Schema(), max(j.vecSize, b.Capacity()))
		if j.typ == JoinLeftOuter && !j.buildLeft {
			for _, v := range j.ownBuild {
				v.EnsureNulls() // buildIdx may hold -1
			}
		}
		// Dense output gathers build row buildIdx[k] to position k; over
		// pass-through probe vectors it goes to position probeIdx[k].
		for c, buf := range j.cols {
			buf.gather(j.ownBuild[c], j.out.Sel, buildIdx, n)
		}
		copy(j.out.Vecs[j.bo:], j.ownBuild)
	}
	return &j.out
}

// emitKept streams out, once the probe side is exhausted, the build rows
// a BuildLeft join keeps (see HashJoin), at most vecSize per call.
func (j *HashJoin) emitKept() *vector.Batch {
	idx := j.buildIdx[:0]
	for ; j.kept < len(j.matched) && len(idx) < j.vecSize; j.kept++ {
		if j.matched[j.kept] == (j.typ == JoinLeftSemi) {
			idx = append(idx, int32(j.kept))
		}
	}
	if j.buildIdx = idx; len(idx) == 0 {
		return nil
	}
	j.ownBuild = outVectors(j.ownBuild, j.build.Schema(), j.vecSize)
	for c, buf := range j.cols {
		buf.gather(j.ownBuild[c], nil, idx, len(idx))
	}
	copy(j.out.Vecs, j.ownBuild)
	if j.typ == JoinLeftOuter {
		if j.ownProbe == nil { // all NULL, made once
			j.ownProbe = vector.NewBatch(j.probe.Schema(), j.vecSize).Vecs
			for _, v := range j.ownProbe {
				v.Nulls = slices.Repeat([]bool{true}, j.vecSize)
			}
		}
		copy(j.out.Vecs[j.po:], j.ownProbe)
	}
	j.out.SetDense(len(idx))
	return &j.out
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	if j.sink != nil && j.keyC != nil {
		if j.merge {
			j.sink.Record("join", "merge", 0, hashtable.Stats{}, j.buildNs)
		} else {
			j.sink.Record("join", "table", 0, j.ht.Stats(), j.buildNs)
		}
	}
	j.cols, j.keyC, j.ht, j.next, j.matched = nil, nil, nil, nil, nil
	j.cur, j.out, j.ownProbe, j.ownBuild = nil, vector.Batch{}, nil, nil
	if err := j.probe.Close(); err != nil {
		j.build.Close()
		return err
	}
	return j.build.Close()
}

package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

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
// batch's rows append to columnar buffers and its keys resolve through the
// key table (one batched lookup per vector). An inner or left-outer join
// stores every build row — a key that is a plain column reference shares
// its payload column's buffer — and chains rows sharing a key off the
// key's first row in build order; a semi or anti join stores one key row
// per distinct key and nothing else. A NULL key never matches: build rows
// with one are not stored, probe rows with one are misses.
//
// Probing looks each probe vector up in the key table at once, then
// emits at most vecSize matches per Next, resuming the probe
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
// the build numbers keys by their runs (keyTable.runs) and a cursor that
// only moves forward across probe batches resolves each probe row to the
// first build row of its key. The chains, the marks and emit are the hash
// path's.
type HashJoin struct {
	probe, build         Operator
	probeKeys, buildKeys []Expr
	typ                  JoinType
	schema               *vtypes.Schema
	vecSize              int

	cols      []*colBuf // build payload columns (inner, left outer)
	keys      keyTable  // the build keys; a payload join numbers a key by its first row
	next      [][]int32 // chunked, per build row: next row with the same key, -1 ends
	tail      [][]int32 // chunked, per first row of a key: last row of its chain
	built     bool
	buildLeft bool
	merge     bool   // see Merge
	cursor    int    // merge: the build row (semi, anti: key) the probe has reached
	prev      int64  // merge: the last probe key
	seen      bool   // merge: prev holds a probe key
	matched   []bool // BuildLeft, per build row: a probe row matched it
	kept      int    // BuildLeft: build rows streamed out after the probe
	po, bo    int    // where probe and build columns start in the output

	kids     []int32 // per probe row: first build row of its key (semi/anti: key id) or -1
	keySel   []int32 // live rows with no NULL key
	rowOf    []int32 // build phase: batch row -> build row id
	seq, neg []int32 // build phase: the batch's build row ids, and all -1: tail's and next's initial values
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

// evalKeys evaluates keys over b into the key table and returns the rows
// that can match — those with no NULL key — as (sel, n).
func (j *HashJoin) evalKeys(keys []Expr, b *vector.Batch) ([]int32, int, error) {
	if err := j.keys.eval(keys, b, !j.built); err != nil {
		return nil, 0, err
	}
	capn := b.Capacity()
	if cap(j.keySel) < capn {
		j.keySel, j.kids = make([]int32, capn), make([]int32, capn)
	}
	sel, n := b.Sel, b.N
	for _, v := range j.keys.vecs {
		if v.Nulls == nil {
			continue
		}
		if k := primitives.SelIsNotNull(j.keySel[:capn], v.Nulls, sel, n); k < n {
			sel, n = j.keySel[:k], k
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
	keyC, shared := keyColBufs(j.buildKeys, j.cols)
	j.keys.init(keyC, !j.merge)
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
		if capn := b.Capacity(); cap(j.rowOf) < capn {
			j.rowOf, j.seq, j.neg = make([]int32, capn), make([]int32, capn), slices.Repeat([]int32{-1}, capn)
			if j.payload() {
				j.keys.rowIDs = j.rowOf
			}
		}
		if j.payload() {
			// Append the batch's rows densely, noting each one's build row id.
			ssel, sn := sel, n
			if j.buildLeft {
				ssel, sn = b.Sel, b.N // kept rows are stored NULL key or not
			}
			base := int32(keyC[0].n) // build rows stored so far
			for c, buf := range j.cols {
				buf.append(b.Vecs[c], ssel, sn)
			}
			for c, buf := range keyC {
				if !shared[c] {
					buf.append(j.keys.vecs[c], ssel, sn)
				}
			}
			j.next = appendChunks(j.next, int(base), j.neg, nil, sn)
			keys, last := j.keys.vecs[0].I64, j.keys.last
			for k := 0; k < sn; k++ {
				i, r := liveAt(ssel, k), base+int32(k)
				j.seq[k], j.rowOf[i] = r, r
				if j.merge { // a merge's runs are adjacent: a row equal to the last chains behind it
					if keys[i] == last && r > 0 {
						*chunkPtr(j.next, uint32(r-1)) = r
					}
					last = keys[i]
				}
			}
			if !j.merge {
				j.tail = appendChunks(j.tail, int(base), j.seq, nil, sn)
			}
		}
		// One batched insert for the vector, then chain duplicate-key rows
		// in batch order behind their key's first row; or a merge's runs
		// (a NULL key would break their adjacency).
		if !j.merge {
			j.keys.findOrInsert(sel, n)
		} else if n < b.N {
			return errUnordered
		} else if err := j.keys.runs(sel, n); err != nil {
			return err
		}
		if j.payload() && !j.merge {
			for k := 0; k < n; k++ {
				i := liveAt(sel, k)
				if head, r := j.keys.ids[i], j.rowOf[i]; int32(head) != r {
					last := chunkPtr(j.tail, head)
					*chunkPtr(j.next, uint32(*last)) = r
					*last = r
				}
			}
		}
	}
	if j.keys.ht != nil {
		j.keys.ht.Settle() // from here on the table only serves probes
	}
	j.tail, j.out.Vecs = nil, make([]*vector.Vector, j.schema.Len())
	j.po, j.bo = 0, j.probe.Schema().Len()
	if j.buildLeft {
		j.po, j.bo, j.matched = j.build.Schema().Len(), 0, make([]bool, keyC[0].n)
	}
	j.buildNs = time.Since(start).Nanoseconds()
	return nil
}

// mergeProbe resolves the probe rows sel[:n] as Find would, by moving the
// cursor forward over the stored build keys to each row's key. Probe keys
// must not decrease, within a batch or across batches, so the cursor never
// moves back and a whole probe walks the build keys once.
func (j *HashJoin) mergeProbe(sel []int32, n int) error {
	keys, built := j.keys.vecs[0].I64, j.keys.keys[0]
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

// probeBatch resolves every live row of a probe batch to the first build
// row of its key, or -1, in one lookup; emit then walks the matches.
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
		err = j.mergeProbe(sel, n)
	} else {
		j.keys.find(sel, n, j.kids)
	}
	j.cur, j.pi, j.chain = b, 0, -1
	return err
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
	if j.sink != nil && j.keys.keys != nil {
		j.keys.record(j.sink, "join", "merge", 0, j.buildNs)
	}
	j.cols, j.keys, j.next, j.matched = nil, keyTable{}, nil, nil
	j.cur, j.out, j.ownProbe, j.ownBuild = nil, vector.Batch{}, nil, nil
	if err := j.probe.Close(); err != nil {
		j.build.Close()
		return err
	}
	return j.build.Close()
}

package core

import (
	"context"
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
// materialized build side (right child), consumed fully on first Next. An
// inner or left-outer join appends every build row to columnar buffers — a
// key that is a plain column reference shares its payload column's buffer
// — and, once the build is exhausted, resolves the stored keys through the
// key table a chunk at a time, into a hash table allocated once for the
// rows stored (index), chaining rows sharing a key off the key's first row
// in build order. A semi or anti join resolves each batch's keys as it
// arrives (one batched lookup per vector) and stores one key row per
// distinct key and nothing else. A NULL key never matches: build rows with
// one are not stored, probe rows with one are misses.
//
// Probing looks each probe vector up in the key table at once, compacts
// the rows its join type keeps in one branch-free pass (keepOf), and
// emits at most vecSize of them per Next; only a build that stored some
// key twice (chained) has its chains walked, a long one resumed on the
// next call. While the matches of an output batch ascend strictly in
// probe position — no probe row matched twice: unchained builds, semi and
// anti always — the output is the probe vectors as they are under the
// match positions as selection vector, and only build columns are
// gathered, scattered to those positions. A batch in which a probe row
// fans out gathers both sides.
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
// the build numbers keys by their runs (keyTable.runs) and a build cursor
// that only moves forward across probe batches gallops between the build
// keys and the probe rows (primitives.MergeHits), so a probe costs about
// its build keys and its hits, not its rows; each hit resolves to the
// first build row of its key. A join that keeps only hits takes them
// compacted from the merge; one that keeps misses compacts as the hash
// path does. The chains, the marks and emit are the hash path's. Neither
// side's order is checked here: the storage scans under the join verify
// it (storage.Scanner).
type HashJoin struct {
	probe, build         Operator
	probeKeys, buildKeys []Expr
	typ                  JoinType
	schema               *vtypes.Schema
	vecSize              int

	cols      []*colBuf // build payload columns (inner, left outer)
	keys      keyTable  // the build keys; a payload join numbers a key by its first row
	next      [][]int32 // chunked, per build row: next row with the same key, -1 ends
	chained   bool      // some key has more than one build row
	keep      primitives.Keep
	built     bool
	buildLeft bool
	merge     bool   // see Merge
	cursor    int    // merge: the build row (semi, anti: key) the probe has reached
	matched   []bool // BuildLeft, per build row: a probe row matched it
	kept      int    // BuildLeft: build rows streamed out after the probe
	po, bo    int    // where probe and build columns start in the output

	kids    []int32 // per probe row: first build row of its key (semi/anti: key id) or -1; then compacted beside mp (a merge keeping only hits writes it compacted)
	keySel  []int32 // live rows with no NULL key; after a probe lookup, mp's buffer
	sink    *HashStatsSink
	buildNs int64 // build-side materialization time (join_build_ns)

	// Emission state: cur is the probe batch being emitted, mp[:nm] the
	// rows it keeps (their matches in kids[:nm]), mi the next of them,
	// chain the build row a fan-out was cut at.
	cur      *vector.Batch
	mp       []int32
	nm, mi   int
	chain    int32
	probeIdx []int32 // chained: match list of the batch being emitted; the output's Sel when probe vectors pass through
	buildIdx []int32 // chained: -1 for outer-null rows
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
// DATE key and that neither side's key ever decreases or is NULL; the
// join checks neither, and over keys out of order returns wrong rows.
// xcompile asks for it only over columns Table.Ordered promises, which
// the storage scans verify as they read.
func (j *HashJoin) Merge() { j.merge = true }

// keepOf is each join type's rule for the probe rows it emits.
var keepOf = [...]primitives.Keep{
	JoinInner: primitives.KeepHits, JoinLeftSemi: primitives.KeepHits,
	JoinLeftAnti: primitives.KeepMisses, JoinLeftOuter: primitives.KeepAll,
}

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
	if err := j.keys.eval(keys, b, !j.built && !j.payload()); err != nil {
		return nil, 0, err
	}
	sel, n := j.notNull(b.Sel, b.N, b.Capacity())
	return sel, n, nil
}

// notNull returns the rows among sel[:n] (nil: rows 0..n-1) of a batch of
// capn slots whose keys, in the key table's vectors, are not NULL.
func (j *HashJoin) notNull(sel []int32, n, capn int) ([]int32, int) {
	if cap(j.keySel) < capn {
		j.keySel, j.kids = make([]int32, capn), make([]int32, capn)
	}
	for _, v := range j.keys.vecs {
		if v.Nulls == nil {
			continue
		}
		if k := primitives.SelIsNotNull(j.keySel[:capn], v.Nulls, sel, n); k < n {
			sel, n = j.keySel[:k], k
		}
	}
	return sel, n
}

// buildTable materializes the build side (see HashJoin). A payload join
// stores every row first and indexes them once the build is exhausted; a
// semi or anti join resolves each batch's keys as it arrives, storing one
// row per distinct key.
func (j *HashJoin) buildTable() error {
	start := time.Now()
	if j.payload() {
		j.cols = newColBufs(j.build.Schema())
	}
	keyC, shared := keyColBufs(j.buildKeys, j.cols)
	j.keys.init(keyC, false)
	j.keys.stored = j.payload()
	if !j.merge && !j.payload() {
		// One row per distinct key: the table grows as the keys arrive, at
		// the load it is probed at.
		j.keys.ht = hashtable.NewProbed(0)
	}
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
		if !j.payload() {
			if j.merge {
				j.keys.runs(sel, n)
			} else {
				j.keys.findOrInsert(sel, n)
			}
			continue
		}
		if j.buildLeft {
			sel, n = b.Sel, b.N // kept rows are stored NULL key or not
		}
		for c, buf := range j.cols {
			buf.append(b.Vecs[c], sel, n)
		}
		for c, buf := range keyC {
			if !shared[c] {
				buf.append(j.keys.vecs[c], sel, n)
			}
		}
	}
	if j.payload() {
		if err := j.index(); err != nil {
			return err
		}
	}
	j.out.Vecs = make([]*vector.Vector, j.schema.Len())
	j.po, j.bo = 0, j.probe.Schema().Len()
	if j.buildLeft {
		j.po, j.bo, j.matched = j.build.Schema().Len(), 0, make([]bool, keyC[0].n)
	}
	if j.keep = keepOf[j.typ]; j.buildLeft {
		j.keep = primitives.KeepHits // the probe's hits mark build rows; its misses are dropped
	}
	j.buildNs = time.Since(start).Nanoseconds()
	return nil
}

// index resolves every stored build row whose key is not NULL to its
// key's first row, a chunk of rows at a time: through a hash table
// allocated once, at the size the stored rows need at the probe load
// (hashtable.NewProbed), or by the runs of a merge's keys. It then chains
// each key's rows off its first in build order: next[r] first holds a
// later row's first row, and one backward pass over the rows links each
// such row in behind its first, so that the chain comes out in build
// order with no pointer to a chain's last row.
func (j *HashJoin) index() error {
	keys, rows := &j.keys, j.keys.keys[0].n
	if !j.merge {
		keys.ht = hashtable.NewProbed(rows)
	}
	views := make([]vector.Vector, len(keys.keys))
	j.next = fillChunks[int32](nil, 0, -1, rows)
	for base := 0; base < rows; base += primitives.ChunkRows {
		// Cancellation point, as between the batches the rows came in.
		if err := ctxErr(j.ctx); err != nil {
			return err
		}
		n := min(primitives.ChunkRows, rows-base)
		keys.load(views, base, n)
		sel, m := j.notNull(nil, n, n)
		if j.merge {
			keys.runs(sel, m)
		} else {
			keys.findOrInsert(sel, m)
		}
		next := j.next[base>>primitives.ChunkShift]
		for k := 0; k < m; k++ {
			i := liveAt(sel, k)
			if head := int32(keys.ids[i]); head != int32(base)+i {
				next[i], j.chained = head, true
			}
		}
	}
	for r := int32(rows) - 1; r > 0 && j.chained; r-- {
		at := chunkPtr(j.next, uint32(r))
		if head := *at; head >= 0 && head < r { // a later row of head's key
			first := chunkPtr(j.next, uint32(head))
			*at, *first = *first, r
		}
	}
	return nil
}

// mergeProbe resolves the probe rows sel[:n] as Find would, by merging
// their keys with the stored build keys from the cursor on, one
// primitives.MergeHits per build chunk. Probe keys do not decrease,
// within a batch or across batches (see Merge), so the cursor never moves
// back and a whole probe walks the build keys once. The hits go compacted
// to mp and their first build rows (semi, anti: keys) to kids, and their
// count is returned; with mp nil kids gets each hit's at the hit's own
// position instead.
func (j *HashJoin) mergeProbe(mp, sel []int32, n int) int {
	keys, built := j.keys.vecs[0].I64, j.keys.keys[0]
	m, k, c := 0, 0, j.cursor
	for k < n && c < built.n {
		base, at := c&^chunkMask, 0
		m, k, at = primitives.MergeHits(mp, j.kids, m, keys, sel, k, n, built.i64[c>>primitives.ChunkShift], c-base, int32(base))
		c = base + at
	}
	j.cursor = c
	return m
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
// row of its key, or -1, in one lookup, and compacts the rows the join
// keeps; emit then walks them. A merge that keeps only hits compacts them
// as it finds them, and resolves no miss. A BuildLeft semi or anti join
// only marks the build rows its hits match, and emits nothing.
func (j *HashJoin) probeBatch(b *vector.Batch) error {
	sel, n, err := j.evalKeys(j.probeKeys, b)
	if err != nil {
		return err
	}
	mp, nm := j.keySel[:b.Capacity()], 0
	if j.merge && j.keep == primitives.KeepHits {
		nm = j.mergeProbe(mp, sel, n)
	} else {
		if n < b.N || j.merge { // rows with a NULL key are misses, as are a merge's unmatched ones
			for k := 0; k < b.N; k++ {
				j.kids[b.LiveIndex(k)] = -1
			}
		}
		if !j.merge {
			j.keys.find(sel, n, j.kids)
		} else {
			j.mergeProbe(nil, sel, n)
		}
		nm = primitives.SelMatches(mp, j.kids, j.kids, j.keep, b.Sel, b.N)
	}
	j.cur, j.mp, j.nm, j.mi, j.chain = b, mp, nm, 0, -1
	if j.buildLeft && j.typ != JoinLeftOuter {
		for _, r := range j.kids[:j.nm] {
			// Mark the key's rows; a marked first row means all are.
			for ; r >= 0 && !j.matched[r]; r = chunkAt(j.next, uint32(r)) {
				j.matched[r] = true
			}
		}
		j.nm = 0
	}
	return nil
}

// emit produces the next output batch of the current probe batch — at
// most vecSize matches, continuing where the previous call stopped — or
// nil when the probe batch is exhausted.
func (j *HashJoin) emit() *vector.Batch {
	b, hi := j.cur, min(j.mi+j.vecSize, j.nm)
	probeIdx, buildIdx, fanout := j.mp[j.mi:hi], j.kids[j.mi:hi], false
	if j.chained {
		probeIdx, buildIdx, fanout = j.expand()
	} else {
		j.mi = hi
	}
	n := len(probeIdx)
	if n == 0 {
		return nil
	}
	if j.buildLeft { // outer: the rows it emits are matched
		for _, r := range buildIdx {
			j.matched[r] = true
		}
	}
	if fanout {
		j.ownProbe = outVectors(j.ownProbe, j.probe.Schema(), n, j.vecSize)
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
		// Dense output fills positions [0, n); over pass-through probe
		// vectors the last match's probe position bounds them.
		need, limit := n, j.vecSize
		if !fanout {
			need, limit = int(probeIdx[n-1])+1, max(j.vecSize, b.Capacity())
		}
		j.ownBuild = outVectors(j.ownBuild, j.build.Schema(), need, limit)
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

// expand walks the chains of the matches from mi on into probeIdx and
// buildIdx, at most vecSize rows: a chain cut where the output fills
// resumes from chain on the next call. It reports whether a probe row
// repeats.
func (j *HashJoin) expand() (probeIdx, buildIdx []int32, fanout bool) {
	probeIdx, buildIdx = j.probeIdx[:0], j.buildIdx[:0]
	for j.mi < j.nm && len(probeIdx) < j.vecSize {
		i, r := j.mp[j.mi], j.kids[j.mi]
		if j.chain >= 0 {
			r = j.chain // resume a chain the previous batch cut
		}
		probeIdx, buildIdx = append(probeIdx, i), append(buildIdx, r) // an outer miss's -1 too
		for r >= 0 {
			if r = chunkAt(j.next, uint32(r)); r < 0 || len(probeIdx) == j.vecSize {
				break
			}
			probeIdx, buildIdx = append(probeIdx, i), append(buildIdx, r)
			fanout = true
		}
		if j.chain = r; r < 0 {
			j.mi++
		}
	}
	j.probeIdx, j.buildIdx = probeIdx, buildIdx
	return probeIdx, buildIdx, fanout
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
	j.ownBuild = outVectors(j.ownBuild, j.build.Schema(), len(idx), j.vecSize)
	for c, buf := range j.cols {
		buf.gather(j.ownBuild[c], nil, idx, len(idx))
	}
	copy(j.out.Vecs, j.ownBuild)
	if j.typ == JoinLeftOuter {
		// All NULL: made when the first kept batch needs it, remade when
		// a later one is longer.
		if j.ownProbe == nil || len(j.ownProbe) > 0 && j.ownProbe[0].Len() < len(idx) {
			j.ownProbe = outVectors(j.ownProbe, j.probe.Schema(), len(idx), j.vecSize)
			for _, v := range j.ownProbe {
				v.Nulls = slices.Repeat([]bool{true}, v.Len())
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
		keys := "table"
		if j.merge {
			keys = "merge"
		}
		j.keys.record(j.sink, "join", keys, 0, j.buildNs)
	}
	j.cols, j.keys, j.next, j.matched = nil, keyTable{}, nil, nil
	j.cur, j.mp, j.out, j.ownProbe, j.ownBuild = nil, nil, vector.Batch{}, nil, nil
	if err := j.probe.Close(); err != nil {
		j.build.Close()
		return err
	}
	return j.build.Close()
}

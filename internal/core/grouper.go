package core

import (
	"slices"

	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// A grouper turns an aggregate's batches into group ids: group sets ids[i]
// for every live row i of b, numbering groups densely in order of first
// appearance, stores new groups' keys in table().keys and returns the
// group count. reset forgets every group (an ordered flush).
type grouper interface {
	group(b *vector.Batch) (ids []uint32, n int, err error)
	table() *keyTable
	reset()
}

// newGrouper picks the grouper for the group keys exprs, of which key ord
// arrives in order (-1: none).
func newGrouper(exprs []Expr, ord int) grouper {
	var g grouper
	switch {
	case len(exprs) == 0:
		return &oneGrouper{keyTable{n: 1, ids: zeroIDs[:]}}
	case ord >= 0 && len(exprs) == 1:
		g = &runGrouper{exprs: exprs}
	case !slices.ContainsFunc(exprs, func(e Expr) bool { return e.Kind().StorageClass() != vtypes.ClassStr }):
		// Only VARCHAR keys carry dictionary codes; an ordered key never is one.
		g = &codeGrouper{hashGrouper: hashGrouper{exprs: exprs, ord: -1}, dicts: make([][]string, len(exprs))}
	default:
		g = &hashGrouper{exprs: exprs, ord: ord}
	}
	keys, _ := keyColBufs(exprs, nil)
	g.table().init(keys, ord < 0 || len(exprs) > 1)
	return g
}

var zeroIDs [vector.DefaultSize]uint32

// oneGrouper is the aggregate without GROUP BY: a table of no key columns,
// whose one key exists before any input and is never forgotten. Its ids,
// zeroIDs while batches fit them, are only read.
type oneGrouper struct{ keyTable }

func (g *oneGrouper) group(b *vector.Batch) ([]uint32, int, error) {
	if capn := b.Capacity(); len(g.ids) < capn {
		g.ids = make([]uint32, capn)
	}
	return g.ids, 1, nil
}

func (g *oneGrouper) reset() {}

// hashGrouper resolves group ids through the key table's hash table. With
// an ordered key (ord ≥ 0) it checks that the key never decreases.
type hashGrouper struct {
	keyTable
	exprs []Expr
	ord   int
}

func (g *hashGrouper) group(b *vector.Batch) ([]uint32, int, error) {
	if err := g.eval(g.exprs, b, true); err != nil {
		return nil, 0, err
	}
	for k := 0; g.ord >= 0 && k < b.N; k++ {
		key := g.vecs[g.ord].I64[b.LiveIndex(k)]
		if key < g.last {
			return nil, 0, errUnordered
		}
		g.last = key
	}
	g.findOrInsert(b.Sel, b.N)
	return g.ids, g.n, nil
}

// codeGrouper is a hashGrouper behind a cache of dictionary codes, which
// serves a batch when every key carries codes, none has a null indicator,
// and the product of the dictionary sizes is at most vector.DefaultSize.
// Each live row's keys combine into one code Σ code_k·stride_k (stride_0 =
// 1, stride_k+1 = stride_k · |dict_k|); cache[c] is 1 + code c's group id
// under the dictionaries dicts, 0 while unresolved, and is cleared when a
// dictionary changes. The first row of a combination the cache lacks (reps)
// goes through the hash path, so the key table stays the one owner of group
// identity and numbering whichever path a batch takes.
type codeGrouper struct {
	hashGrouper
	dicts [][]string
	cache []uint32
	comb  []uint16 // the batch's combined codes
	reps  []int32
}

func (g *codeGrouper) group(b *vector.Batch) ([]uint32, int, error) {
	if err := g.eval(g.exprs, b, true); err != nil {
		return nil, 0, err
	}
	size, changed := 1, false
	for i, v := range g.vecs {
		if size *= len(v.Dict); v.Codes == nil || v.Nulls != nil || size > vector.DefaultSize {
			g.findOrInsert(b.Sel, b.N)
			return g.ids, g.n, nil
		}
		changed = changed || !vector.SameDict(g.dicts[i], v.Dict)
	}
	if g.cache == nil {
		g.cache = make([]uint32, vector.DefaultSize)
	}
	if changed {
		for i, v := range g.vecs {
			g.dicts[i] = v.Dict
		}
		clear(g.cache[:size])
	}
	if capn := b.Capacity(); cap(g.comb) < capn {
		g.comb, g.reps = make([]uint16, capn), make([]int32, 0, capn)
	}
	clear(g.comb)
	stride := 1
	for _, v := range g.vecs {
		primitives.MapAddCodes(g.comb, v.Codes, uint16(stride), b.Sel, b.N)
		stride *= len(v.Dict)
	}
	if !primitives.LookupCodes(g.ids, g.cache, g.comb, b.Sel, b.N) {
		return g.ids, g.n, nil
	}
	// Resolve one representative row per unseen combination, then read
	// the whole batch from the cache again.
	const pending = ^uint32(0)
	reps := g.reps[:0]
	for k := range b.N {
		i := b.LiveIndex(k)
		if c := g.comb[i]; g.cache[c] == 0 {
			g.cache[c] = pending
			reps = append(reps, int32(i))
		}
	}
	g.findOrInsert(reps, len(reps))
	for _, i := range reps {
		g.cache[g.comb[i]] = g.ids[i] + 1
	}
	primitives.LookupCodes(g.ids, g.cache, g.comb, b.Sel, b.N)
	return g.ids, g.n, nil
}

func (g *codeGrouper) reset() {
	g.keyTable.reset()
	clear(g.cache)
}

// runGrouper numbers the groups of one key that arrives in order by the
// key's runs (keyTable.runs), with no hash table.
type runGrouper struct {
	keyTable
	exprs []Expr
}

func (g *runGrouper) group(b *vector.Batch) ([]uint32, int, error) {
	if err := g.eval(g.exprs, b, true); err != nil {
		return nil, 0, err
	}
	if g.vecs[0].Nulls != nil {
		return nil, 0, errUnordered
	}
	err := g.runs(b.Sel, b.N)
	return g.ids, g.n, err
}

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
	case ord < 0 && !slices.ContainsFunc(exprs, func(e Expr) bool {
		c := e.Kind().StorageClass()
		return c != vtypes.ClassStr && c != vtypes.ClassI64
	}):
		// VARCHAR keys code by their dictionaries, BIGINT and DATE keys by
		// their offsets in a window; an ordered key keeps its order check.
		g = &codeGrouper{hashGrouper: hashGrouper{exprs: exprs, ord: -1}, parts: make([]codePart, len(exprs))}
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

// codeGrouper is a hashGrouper behind a cache of group codes. Each key
// codes a live row by a part (codePart) of at most vector.DefaultSize
// codes: a VARCHAR key by its dictionary code, a BIGINT or DATE key by its
// offset key − base in a window [base, base+width). A window is the range
// [min, max] of some batch's live keys: it is kept while a batch's keys
// fall inside it, and re-based to the batch's range otherwise. The cache
// serves a batch when every VARCHAR key carries codes, no key has a null
// indicator and the product of the parts' widths is at most
// vector.DefaultSize; otherwise the batch takes the hash path. A row's
// keys combine into one code Σ code_k·stride_k (stride_0 = 1, stride_k+1 =
// stride_k · width_k); cache[c] is 1 + code c's group id under the parts,
// 0 while unresolved, and is cleared when a part changes (a dictionary
// switch, a re-based window). A batch that changes a part and then takes
// the hash path, and a reset, zero the parts, which no batch matches, so
// the next batch served clears the cache. The first row of a combination
// the cache lacks (reps) goes through the hash path, so the key table
// stays the one owner of group identity and numbering whichever path a
// batch takes. The reps' keys go to it compacted, dense, into the key
// table's own vectors: only their strings are read through the
// dictionaries.
type codeGrouper struct {
	hashGrouper
	parts  []codePart                  // per key, what the cache's codes mean
	cache  *[vector.DefaultSize]uint32 // nil until the cache serves a batch
	comb   []uint16                    // the batch's combined codes
	reps   []int32
	served int // batches the cache served
}

// codePart is one key's part of a combined code, width codes wide: a
// VARCHAR key's dictionary, identified as vector.SameDict does by its
// size and its first entry dict, or an integer key's window [base,
// base+width).
type codePart struct {
	dict  *string
	base  int64
	width int
}

func (g *codeGrouper) group(b *vector.Batch) ([]uint32, int, error) {
	if err := g.eval(g.exprs, b, true); err != nil {
		return nil, 0, err
	}
	size, changed := 1, false
	for i, v := range g.vecs {
		p, ok := g.parts[i], v.Nulls == nil
		switch {
		case v.Codes != nil:
			p = codePart{width: len(v.Dict())}
			if p.width > 0 {
				p.dict = &v.Dict()[0]
			}
		case v.Kind.StorageClass() != vtypes.ClassI64: // strings without codes
			ok = false
		default:
			lo, hi := primitives.MinMaxI64(v.I64, b.Sel, b.N)
			if lo < p.base || uint64(hi)-uint64(p.base) >= uint64(p.width) {
				// Unsigned, so that MinInt64 and MaxInt64 in one batch do
				// not wrap into a span that fits.
				span := uint64(hi) - uint64(lo)
				p = codePart{base: lo, width: int(min(span, vector.DefaultSize)) + 1}
			}
		}
		if size *= p.width; !ok || size > vector.DefaultSize {
			if changed {
				clear(g.parts)
			}
			g.findOrInsert(b.Sel, b.N)
			return g.ids, g.n, nil
		}
		changed = changed || p != g.parts[i]
		g.parts[i] = p
	}
	g.served++
	if g.cache == nil {
		g.cache = new([vector.DefaultSize]uint32)
	} else if changed {
		clear(g.cache[:size])
	}
	if capn := b.Capacity(); cap(g.comb) < capn {
		g.comb, g.reps = make([]uint16, capn), make([]int32, 0, capn)
	}
	clear(g.comb)
	stride := 1
	for i, v := range g.vecs {
		if v.Codes != nil {
			primitives.MapAddCodes(g.comb, v.Codes, uint16(stride), b.Sel, b.N)
		} else {
			primitives.MapAddOffsets(g.comb, v.I64, g.parts[i].base, uint16(stride), b.Sel, b.N)
		}
		stride *= g.parts[i].width
	}
	if !primitives.LookupCodes(g.ids, g.cache[:], g.comb, b.Sel, b.N) {
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
	for c, v := range g.vecs {
		g.vecs[c] = compactKeys(g.ownVec(c), v, reps)
	}
	g.findOrInsert(nil, len(reps))
	for k, i := range reps {
		g.cache[g.comb[i]] = g.ids[k] + 1
	}
	primitives.LookupCodes(g.ids, g.cache[:], g.comb, b.Sel, b.N)
	return g.ids, g.n, nil
}

// compactKeys gathers the rows rows of v, a BIGINT or DATE key or a coded
// VARCHAR one without a null indicator, densely into buf, reading strings
// through the dictionary, and returns buf, which is not coded.
func compactKeys(buf, v *vector.Vector, rows []int32) *vector.Vector {
	n := len(rows)
	*buf = vector.Vector{Kind: v.Kind, I64: buf.I64, Str: buf.Str} // no null indicator
	if v.Codes != nil {
		if cap(buf.Str) < n {
			buf.Str = make([]string, n, max(n, 2*cap(buf.Str)))
		}
		buf.Str = buf.Str[:n]
		primitives.CompactCodes(buf.Str, v.Codes, v.Dict(), rows, n)
		return buf
	}
	if cap(buf.I64) < n {
		buf.I64 = make([]int64, n, max(n, 2*cap(buf.I64)))
	}
	buf.I64 = buf.I64[:n]
	primitives.CompactSel(buf.I64, v.I64, rows, n)
	return buf
}

func (g *codeGrouper) reset() {
	g.keyTable.reset()
	clear(g.parts)
}

// keysOf names how g resolved keys, for HashTableStat.Keys: "codes" once
// a code cache served a batch.
func keysOf(g grouper) string {
	switch g := g.(type) {
	case *runGrouper:
		return "runs"
	case *codeGrouper:
		if g.served > 0 {
			return "codes"
		}
	}
	return "table"
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

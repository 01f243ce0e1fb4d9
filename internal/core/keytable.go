package core

import (
	"math"

	"vectorwise/internal/hashtable"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// keyTable is the one place the hash-keyed operators (the aggregate's
// groupers, HashJoin's build and probe) resolve keys to ids: the only code
// that hashes key columns and verifies candidates against stored keys. Its
// hash table is nil when ids come from the runs of one ordered key. New
// keys are numbered 0, 1, ... and stored a batch at a time, after the
// lookup and before every verification round, which may meet a key an
// earlier row of the batch created. A payload join sets rowIDs instead: it
// stores every build row first, and a key's id is its first row. A coded
// VARCHAR or DOUBLE key is read through its dictionary, an arena VARCHAR
// key as views of its bytes: the rows a lookup resolves are filled into
// the table's own vector for that key (own) before they are hashed,
// verified or stored.
type keyTable struct {
	keys    []*colBuf
	vecs    []*vector.Vector
	own     []vector.Vector // per key, a vector the table fills; nil until one is needed
	hashes  []uint64
	ht      *hashtable.Table
	n       int      // keys numbered
	rowIDs  []int32  // batch row -> stored row, or nil
	newRows []int32  // batch rows of keys numbered and not yet stored
	ids     []uint32 // per batch row: its key's id
	run     int64    // the id of the last row's key in runs, -1 before the first
	last    int64    // the last ordered key consumed
	eq      hashtable.EqFn
	alloc   hashtable.NewFn
}

// init makes t an empty table over the key buffers keys.
func (t *keyTable) init(keys []*colBuf, hashed bool) {
	*t = keyTable{keys: keys, vecs: make([]*vector.Vector, len(keys)), run: -1, last: math.MinInt64}
	if hashed {
		t.ht = hashtable.New(0)
	}
	t.eq, t.alloc = t.verify, t.add
}

// table returns t; the groupers reach their stored keys through it.
func (t *keyTable) table() *keyTable { return t }

// eval evaluates exprs over b into vecs and sizes the buffers (ids too with insert).
func (t *keyTable) eval(exprs []Expr, b *vector.Batch, insert bool) error {
	for i, e := range exprs {
		v, err := e.Eval(b)
		if err != nil {
			return err
		}
		t.vecs[i] = v
	}
	capn := b.Capacity()
	if cap(t.hashes) < capn {
		t.hashes = make([]uint64, capn)
	}
	if insert && cap(t.ids) < capn {
		t.ids, t.newRows = make([]uint32, capn), make([]int32, 0, capn)
	}
	return nil
}

// hash hashes the live rows sel[:n] of vecs, one kernel per key column,
// after filling a coded or arena key's values for those rows.
func (t *keyTable) hash(sel []int32, n int) {
	for i, v := range t.vecs {
		if v.Packed() {
			t.vecs[i] = t.ownVec(i).FillFrom(v, sel, n)
		}
		hashVec(t.hashes, t.vecs[i], sel, n, i > 0)
	}
}

// ownVec returns the table's own vector for key c.
func (t *keyTable) ownVec(c int) *vector.Vector {
	if t.own == nil {
		t.own = make([]vector.Vector, len(t.keys))
	}
	return &t.own[c]
}

// findOrInsert sets ids[i] to the id of live row i's key for the rows
// sel[:n], numbering and storing the keys the table has not seen.
func (t *keyTable) findOrInsert(sel []int32, n int) {
	t.hash(sel, n)
	t.ht.FindOrInsert(t.hashes, sel, n, t.ids, t.eq, t.alloc)
	t.store()
}

// find is findOrInsert without inserting: an absent key's id is -1.
func (t *keyTable) find(sel []int32, n int, out []int32) {
	t.hash(sel, n)
	t.ht.Find(t.hashes, sel, n, out, t.eq)
}

// runs is findOrInsert without ht, for one never-decreasing key column: a
// row whose key differs from the previous row's (in this batch or an
// earlier one) opens the next key, checking the order in the same pass.
func (t *keyTable) runs(sel []int32, n int) error {
	keys, ids, run, last := t.vecs[0].I64, t.ids, t.run, t.last
	for k := 0; k < n; k++ {
		i := liveAt(sel, k)
		if key := keys[i]; run < 0 || key != last {
			if key < last {
				return errUnordered
			}
			run, last = int64(t.add(i)), key
		}
		ids[i] = uint32(run)
	}
	t.run, t.last = run, last
	t.store()
	return nil
}

// add is the table's NewFn: it numbers the key at batch row i.
func (t *keyTable) add(i int32) uint32 {
	if t.rowIDs != nil {
		return uint32(t.rowIDs[i])
	}
	t.newRows = append(t.newRows, i)
	t.n++
	return uint32(t.n - 1)
}

// verify is the table's EqFn: column-major comparison of each candidate
// row against its candidate key, after storing the batch's new keys.
func (t *keyTable) verify(rows []int32, vals []uint32, miss []bool, n int) {
	t.store()
	for c, kc := range t.keys {
		kc.markUnequal(t.vecs[c], rows, vals, miss, n)
	}
}

// store stores the keys numbered since it last ran.
func (t *keyTable) store() {
	if n := len(t.newRows); n > 0 {
		for c, kc := range t.keys {
			kc.append(t.vecs[c], t.newRows, n)
		}
		t.newRows = t.newRows[:0]
	}
}

// reset forgets every key, keeping the buffers' capacity; runs still
// checks the next row's order against the last key consumed.
func (t *keyTable) reset() {
	for _, kc := range t.keys {
		kc.retain(nil)
	}
	if t.ht != nil {
		t.ht.Reset()
	}
	t.n, t.run = 0, -1
}

// record reports op's keys, resolved as keys names (HashTableStat.Keys),
// to sink, with ht's stats if the table has one.
func (t *keyTable) record(sink *HashStatsSink, op, keys string, held int, phaseNs int64) {
	var st hashtable.Stats
	if t.ht != nil {
		st = t.ht.Stats()
	}
	sink.Record(op, keys, held, st, phaseNs)
}

// hashVec hashes v's live rows into dst, or with fold mixes them in.
func hashVec(dst []uint64, v *vector.Vector, sel []int32, n int, fold bool) {
	switch c := v.Kind.StorageClass(); {
	case c == vtypes.ClassI64 && fold:
		primitives.RehashI64(dst, v.I64, sel, n)
	case c == vtypes.ClassI64:
		primitives.HashI64(dst, v.I64, sel, n)
	case c == vtypes.ClassF64 && fold:
		primitives.RehashF64(dst, v.F64, sel, n)
	case c == vtypes.ClassF64:
		primitives.HashF64(dst, v.F64, sel, n)
	case c == vtypes.ClassStr && fold:
		primitives.RehashStr(dst, v.Str, sel, n)
	case c == vtypes.ClassStr:
		primitives.HashStr(dst, v.Str, sel, n)
	case fold:
		primitives.RehashBool(dst, v.B, sel, n)
	default:
		primitives.HashBool(dst, v.B, sel, n)
	}
}

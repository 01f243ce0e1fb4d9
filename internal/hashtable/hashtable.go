// Package hashtable is the engine's shared hash-table core: a
// cache-conscious open-addressing table keyed by 64-bit hashes, probed
// a *vector at a time*. HashAggregate group lookup, HashJoin build and
// probe, set-operation dedup and both reference engines all sit on it,
// replacing the per-row `map[uint64]` work the Vectorwise paper argues
// a batch engine must not do at its pipeline hearts.
//
// # Layout
//
// One slot array, power-of-two sized, linear probing. Each slot is an
// 8-byte entry:
//
//	tag uint32  0 = empty, else the low 31 hash bits | 1<<31
//	val uint32  caller payload (group id, key id)
//
// Everything a probe classifies on lives in one 8-byte record, so a
// probe — hit, empty, or collision — costs exactly one entry-array
// cache line, and a linear walk usually stays on the same line (eight
// slots per 64-byte line). The inline tag rejects almost every
// hash-colliding slot before the caller is asked about keys; only on a
// tag hit does the caller verify actual key columns. The tag holds every
// hash bit a slot index is taken from (tables stop at 2^31 slots; payloads
// are 32-bit anyway), which makes growth rehash-free: doubling reinserts
// occupied slots by their stored tag without touching caller key
// storage. Half the bytes per slot of a full-hash entry is half the
// allocation of every build and half the cache lines a probe can miss.
//
// The table maps each distinct key hash chain to one uint32 value and
// never stores keys itself: key verification runs through a caller
// callback over its own (columnar) key storage, so the table works
// identically for aggregate groups, join build rows and boxed reference
// -engine rows.
//
// # Batch kernels
//
// FindOrInsert and Find resolve a whole vector in one pass over its rows.
// Each row probes its home slot; on a foreign tag it walks on, slot by
// slot, until it meets an empty slot (a miss, or the slot it claims) or
// its own tag (a candidate). Key verification for all candidates then
// runs as one callback over the caller's key columns — column-major, the
// same shape as every other kernel in the engine. Only a candidate whose
// keys differ — a true collision on all 31 tag bits, or a full 64-bit hash
// collision — walks again, from the slot after it, and a later round
// verifies where it stops. On tables past gatherMinSlots a branch-free
// gather stage loads every row's home slot first, and the rows that meet
// a foreign tag there walk after the others are classified, so that cache
// misses overlap instead of serializing behind data-dependent branches.
// All scratch lives on the Table, so steady-state batches allocate
// nothing.
//
// A table grows at 7/10 load, which keeps an aggregate's directory dense
// while it is probed and grown. A finished join build only serves probes,
// and there an absent key — most of a selective join's probe rows — walks
// to the next empty slot: ½(1 + 1/(1−α)²) slots expected, 6.1 at α = 0.7
// but 2.5 at α = 0.5. Settle grows such a table to at most half load.
package hashtable

// Table is an open-addressing linear-probing hash table keyed by
// uint64 hashes with uint32 payloads. The zero value is not usable;
// call New. A Table is not safe for concurrent use.
type Table struct {
	entries []entry
	mask    uint64
	used    int
	growAt  int

	// stats
	resizes  int
	maxProbe int
	hist     [histSize]uint64 // ops resolved at probe distance d (capped)

	// reusable batch scratch (see FindOrInsert)
	candRows  []int32  // rows whose walk stopped on their own tag
	candVals  []uint32 // the payload stored there
	candSlots []uint64 // and its slot
	miss      []bool
	gEnt      []entry  // gathered home entry per live row (large tables)
	walkRows  []int32  // rows whose gathered home entry held a foreign tag
	walkSlots []uint64 // and their home slots
}

// entry packs a slot's hash tag (which doubles as occupancy marker) and
// payload into 8 bytes so any probe outcome is decided from one cache line.
type entry struct {
	tag uint32
	val uint32
}

const (
	minSlots = 64
	histSize = 64
	// Growth triggers above 7/10 occupancy — low enough that linear
	// probe chains stay short, high enough that the tag array stays
	// dense in cache.
	loadNum, loadDen = 7, 10
	// Settle leaves a table that only serves probes at most half full
	// (see the package doc).
	settleNum, settleDen = 1, 2
	// Tables past this many slots no longer fit fast cache; a batch's
	// first probes then run as a branch-free gather stage over every
	// row's home slot, a classify stage over the (L1-resident) gather
	// scratch and a walk stage for the rows that met a foreign tag, so
	// slot-line misses overlap instead of serializing behind
	// classification branches.
	gatherMinSlots = 1 << 15
)

// EqFn verifies a round's candidate rows against stored entries: for
// each j < n the caller must set miss[j] = true when the keys of probe
// row rows[j] differ from the keys of the entry holding payload
// vals[j]. miss arrives cleared. Implementations loop key columns
// outermost (column-major) so each key column streams once per round.
// A payload may be one NewFn handed out earlier in the same batch.
type EqFn func(rows []int32, vals []uint32, miss []bool, n int)

// NewFn allocates the payload for a first-seen key at probe row `row`
// (an index into the batch the hashes were computed over). It is called
// exactly once per distinct new key, when the key's first row claims a
// slot: in row order for rows that reach an empty slot on their first
// walk, after them for a row whose walk first stopped on a colliding key.
type NewFn func(row int32) uint32

// New returns a table pre-sized for about `hint` entries (0 picks the
// minimum). Capacity is always a power of two.
func New(hint int) *Table {
	slots := minSlots
	for slots*loadNum/loadDen < hint {
		slots *= 2
	}
	t := &Table{}
	t.alloc(slots)
	return t
}

func (t *Table) alloc(slots int) {
	if slots > maxSlots {
		panic("hashtable: more than 2^31 slots")
	}
	t.entries = make([]entry, slots)
	t.mask = uint64(slots - 1)
	t.growAt = slots * loadNum / loadDen
}

// Len returns the number of entries (distinct keys).
func (t *Table) Len() int { return t.used }

// maxSlots bounds the directory: a slot index must fit the 31 hash bits
// a tag stores, or growth could not re-home an entry from its tag.
const maxSlots = 1 << 31

// tagOf derives the slot tag from a hash: its low 31 bits with the high
// bit forced on, so a tag is never 0 (the empty marker) without a
// data-dependent branch.
func tagOf(h uint64) uint32 { return uint32(h) | 1<<31 }

// reserve grows the table until n more insertions cannot push occupancy
// past the load factor. Growing before a batch (never during) keeps
// every slot claimed mid-batch valid.
func (t *Table) reserve(n int) {
	for t.used+n > t.growAt {
		t.grow()
	}
}

// Settle grows a table that will only be probed from now on — a finished
// join build — until it is at most settleNum/settleDen full, so that an
// absent key's walk stays short (see the package doc).
func (t *Table) Settle() {
	for t.used*settleDen > len(t.entries)*settleNum {
		t.grow()
	}
}

// grow doubles the directory, reinserting every occupied slot by its
// stored tag. Entries are unique by construction, so reinsertion is a
// plain first-empty-slot walk with no key verification.
func (t *Table) grow() {
	oldEntries := t.entries
	t.alloc(len(oldEntries) * 2)
	for _, e := range oldEntries {
		if e.tag == 0 {
			continue
		}
		ns := uint64(e.tag) & t.mask
		for t.entries[ns].tag != 0 {
			ns = (ns + 1) & t.mask
		}
		t.entries[ns] = e
	}
	t.resizes++
}

// ensureScratch sizes the batch buffers for an n-row batch.
func (t *Table) ensureScratch(n int) {
	if cap(t.candRows) < n {
		t.candRows = make([]int32, n)
		t.candVals = make([]uint32, n)
		t.candSlots = make([]uint64, n)
		t.miss = make([]bool, n)
		t.gEnt = make([]entry, n)
		t.walkRows = make([]int32, n)
		t.walkSlots = make([]uint64, n)
	}
}

// note records that `resolved` operations finished at probe distance d.
func (t *Table) note(d, resolved int) {
	if resolved == 0 {
		return
	}
	if d > t.maxProbe {
		t.maxProbe = d
	}
	if d >= histSize {
		d = histSize - 1
	}
	t.hist[d] += uint64(resolved)
}

// FindOrInsert maps every live row's hash to its payload, inserting
// first-seen keys via alloc: on return out[i] holds the payload for
// each live row i. Key verification runs through eq (see EqFn); rows
// whose keys were never seen get a fresh payload from alloc. Duplicate
// keys within the batch resolve to the first occurrence's payload.
// out is indexed by batch position (like hashes), not compacted.
func (t *Table) FindOrInsert(hashes []uint64, sel []int32, n int, out []uint32, eq EqFn, alloc NewFn) {
	if n == 0 {
		return
	}
	t.reserve(n)
	probe(t, hashes, sel, n, out, eq, alloc)
}

// Find maps every live row's hash to its payload or -1 when the key is
// absent: out[i] = int32(payload) or -1. The same pass as FindOrInsert,
// except that an empty slot resolves the row as a miss.
func (t *Table) Find(hashes []uint64, sel []int32, n int, out []int32, eq EqFn) {
	if n == 0 {
		return
	}
	probe(t, hashes, sel, n, out, eq, nil)
}

// probe is FindOrInsert (alloc set) and Find (alloc nil): one pass over
// the live rows in which every row walks to an empty slot, where it
// resolves, or to its own tag, where it becomes a candidate; then rounds
// of key verification until no candidate is left (see the package doc).
//
// A row's first probe stays straight-line — one load and a few compares —
// because most rows of a batch stop on their home slot; the walk runs only
// on a foreign tag. A row counts once in the probe-distance histogram, at
// the slot where its walk stops: rows that stop at home are counted
// together once per batch, and a candidate that fails verification takes
// its count back before it walks on.
func probe[T int32 | uint32](t *Table, hashes []uint64, sel []int32, n int, out []T, eq EqFn, alloc NewFn) {
	t.ensureScratch(n)
	entries, mask := t.entries, t.mask
	candRows, candVals, candSlots := t.candRows, t.candVals, t.candSlots
	nCand, walked := 0, 0
	switch {
	case len(entries) >= gatherMinSlots:
		// Out of cache, the rows that meet a foreign tag walk after the
		// classify loop, in a loop of their own, so that their walks'
		// misses overlap too instead of each waiting behind a mispredicted
		// branch. A walker's slot is stored, not recomputed from its hash:
		// one load fewer before its walk's first miss.
		gEnt, walkRows, walkSlots := t.gather(hashes, sel, n), t.walkRows[:n], t.walkSlots[:n]
		for k := 0; k < n; k++ {
			i := int32(k)
			if sel != nil {
				i = sel[k]
			}
			h := hashes[i]
			s, e := h&mask, gEnt[k]
			if e.tag == 0 && alloc != nil {
				// Re-read: an earlier row of this batch may have
				// claimed the slot after the gather.
				e = entries[s]
			}
			if e.tag != 0 && e.tag != tagOf(h) {
				walkRows[walked], walkSlots[walked] = i, s
				walked++
				continue
			}
			if e.tag == 0 {
				vacant(t, out, i, s, h, alloc)
				continue
			}
			candRows[nCand], candVals[nCand], candSlots[nCand] = i, e.val, s
			nCand++
		}
		for k, i := range walkRows[:walked] {
			h := hashes[i]
			s, e := walk(entries, mask, walkSlots[k], tagOf(h))
			t.note(int((s-h)&mask), 1)
			if e.tag == 0 {
				vacant(t, out, i, s, h, alloc)
				continue
			}
			candRows[nCand], candVals[nCand], candSlots[nCand] = i, e.val, s
			nCand++
		}
	case sel == nil:
		for i := int32(0); i < int32(n); i++ {
			h := hashes[i]
			s := h & mask
			e := entries[s]
			if e.tag != 0 && e.tag != tagOf(h) {
				s, e = walk(entries, mask, s, tagOf(h))
				t.note(int((s-h)&mask), 1)
				walked++
			}
			if e.tag == 0 {
				vacant(t, out, i, s, h, alloc)
				continue
			}
			candRows[nCand], candVals[nCand], candSlots[nCand] = i, e.val, s
			nCand++
		}
	default:
		for _, i := range sel[:n] {
			h := hashes[i]
			s := h & mask
			e := entries[s]
			if e.tag != 0 && e.tag != tagOf(h) {
				s, e = walk(entries, mask, s, tagOf(h))
				t.note(int((s-h)&mask), 1)
				walked++
			}
			if e.tag == 0 {
				vacant(t, out, i, s, h, alloc)
				continue
			}
			candRows[nCand], candVals[nCand], candSlots[nCand] = i, e.val, s
			nCand++
		}
	}
	t.note(0, n-walked)
	for nCand > 0 {
		miss := t.miss[:nCand]
		clear(miss)
		eq(candRows, candVals, miss, nCand)
		// A verified candidate resolves where it stands. A failed one — a
		// true collision — takes back its count and walks on from the slot
		// after it; unless it stops on an empty slot, it is a candidate of
		// the next round.
		failed := 0
		for j, i := range candRows[:nCand] {
			if miss[j] {
				candRows[failed], candSlots[failed] = i, candSlots[j]
				failed++
				continue
			}
			out[i] = T(candVals[j])
		}
		nCand = 0
		for k, i := range candRows[:failed] {
			h, s := hashes[i], candSlots[k]
			t.hist[min(int((s-h)&mask), histSize-1)]--
			s, e := walk(entries, mask, s, tagOf(h))
			t.note(int((s-h)&mask), 1)
			if e.tag == 0 {
				vacant(t, out, i, s, h, alloc)
				continue
			}
			candRows[nCand], candVals[nCand], candSlots[nCand] = i, e.val, s
			nCand++
		}
	}
}

// gather loads every live row's home entry into gEnt with no
// data-dependent branch, so that a large table's cache misses overlap.
func (t *Table) gather(hashes []uint64, sel []int32, n int) []entry {
	gEnt := t.gEnt[:n]
	if sel == nil {
		for i := range gEnt {
			gEnt[i] = t.entries[hashes[i]&t.mask]
		}
	} else {
		for k, i := range sel[:n] {
			gEnt[k] = t.entries[hashes[i]&t.mask]
		}
	}
	return gEnt
}

// walk steps on from slot s to the first slot that is empty or holds tag
// tg. The table is never full, so it always stops.
func walk(entries []entry, mask, s uint64, tg uint32) (uint64, entry) {
	for {
		s = (s + 1) & mask
		if e := entries[s]; e.tag == 0 || e.tag == tg {
			return s, e
		}
	}
}

// vacant resolves row i, whose probe ended on the empty slot s: Find
// (alloc nil) reports the key absent, -1 in its int32 output;
// FindOrInsert claims the slot for a new payload.
func vacant[T int32 | uint32](t *Table, out []T, i int32, s, h uint64, alloc NewFn) {
	if alloc == nil {
		out[i] = ^T(0)
		return
	}
	v := alloc(i)
	t.entries[s] = entry{tag: tagOf(h), val: v}
	t.used++
	out[i] = T(v)
}

// Put is the scalar form of FindOrInsert for the row-at-a-time
// reference engines: eq verifies a candidate payload's keys, alloc
// builds the payload for a new key. Reports the payload and whether it
// was inserted.
func (t *Table) Put(h uint64, eq func(v uint32) bool, alloc func() uint32) (uint32, bool) {
	t.reserve(1)
	tg := tagOf(h)
	s := h & t.mask
	for d := 0; ; d++ {
		e := t.entries[s]
		if e.tag == 0 {
			v := alloc()
			t.entries[s] = entry{tag: tg, val: v}
			t.used++
			t.note(d, 1)
			return v, true
		}
		if e.tag == tg && eq(e.val) {
			t.note(d, 1)
			return e.val, false
		}
		s = (s + 1) & t.mask
	}
}

// Get is the scalar form of Find.
func (t *Table) Get(h uint64, eq func(v uint32) bool) (uint32, bool) {
	tg := tagOf(h)
	s := h & t.mask
	for d := 0; ; d++ {
		e := t.entries[s]
		if e.tag == 0 {
			t.note(d, 1)
			return 0, false
		}
		if e.tag == tg && eq(e.val) {
			t.note(d, 1)
			return e.val, true
		}
		s = (s + 1) & t.mask
	}
}

// Stats is a point-in-time summary of table shape and probe behavior.
type Stats struct {
	Slots    int     // directory size
	Entries  int     // distinct keys stored
	Load     float64 // Entries / Slots
	Resizes  int     // directory doublings since New
	ProbeP50 int     // median probe distance over all resolved ops
	ProbeMax int     // longest probe distance observed
}

// Stats reports the table's current shape and cumulative probe-length
// distribution (every resolved FindOrInsert/Find/Put/Get op counts
// once).
func (t *Table) Stats() Stats {
	st := Stats{
		Slots:    len(t.entries),
		Entries:  t.used,
		Resizes:  t.resizes,
		ProbeMax: t.maxProbe,
	}
	if st.Slots > 0 {
		st.Load = float64(st.Entries) / float64(st.Slots)
	}
	var total uint64
	for _, c := range t.hist {
		total += c
	}
	if total > 0 {
		half := (total + 1) / 2
		var cum uint64
		for d, c := range t.hist {
			cum += c
			if cum >= half {
				st.ProbeP50 = d
				break
			}
		}
	}
	return st
}

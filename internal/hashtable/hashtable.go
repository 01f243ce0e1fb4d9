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
// cache line, and a linear re-probe usually stays on the same line
// (eight slots per 64-byte line). The inline tag rejects almost every
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
// -engine rows. Distinct keys that share a tag — or a full 64-bit hash —
// are handled by continued probing — the callback rejecting a candidate
// sends the row one slot further, exactly like a tag mismatch.
//
// # Batch kernels
//
// FindOrInsert and Find process a whole vector per call in re-probe
// passes: pass 0 computes every row's bucket from its hash and resolves
// the (vast majority of) rows that hit an empty or matching slot; rows
// that met a foreign key fall into a shrinking miss set that re-probes
// one slot further per pass. On large tables a branch-free gather pass
// touches every probed slot first, so the classify loop's cache misses
// overlap instead of serializing behind data-dependent branches. Key
// verification for each pass's candidate set runs as its own loop over
// the caller's key columns — column-major, the same shape as every
// other kernel in the engine. All scratch lives on the Table, so
// steady-state batches allocate nothing.
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
	rows      []int32  // pending row indices
	rows2     []int32  // next pass's pending rows
	slots     []uint64 // current slot per pending row
	slots2    []uint64
	candRows  []int32
	candVals  []uint32
	candSlots []uint64
	miss      []bool
	gSlots    []uint64 // gathered home slot per row (pass 0)
	gEnt      []entry  // gathered home entry per row (pass 0)
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
	// Tables past this many slots no longer fit fast cache; pass 0 then
	// runs as a branch-free gather stage over every row's home slot
	// followed by a classify stage over the (L1-resident) gather
	// scratch, so slot-line misses overlap instead of serializing
	// behind classification branches.
	gatherMinSlots = 1 << 15
)

// EqFn verifies a pass's candidate rows against stored entries: for
// each j < n the caller must set miss[j] = true when the keys of probe
// row rows[j] differ from the keys of the entry holding payload
// vals[j]. miss arrives cleared. Implementations loop key columns
// outermost (column-major) so each key column streams once per pass.
type EqFn func(rows []int32, vals []uint32, miss []bool, n int)

// NewFn allocates the payload for a first-seen key at probe row `row`
// (an index into the batch the hashes were computed over). It is called
// exactly once per distinct new key. Within a pass, allocations run in
// row order; a row deferred by a collision allocates in a later pass,
// after rows the earlier pass resolved — so allocation order is
// pass-major, not strict batch order.
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

// ensureScratch sizes the pass buffers for an n-row batch.
func (t *Table) ensureScratch(n int) {
	if cap(t.rows) < n {
		t.rows = make([]int32, n)
		t.rows2 = make([]int32, n)
		t.slots = make([]uint64, n)
		t.slots2 = make([]uint64, n)
		t.candRows = make([]int32, n)
		t.candVals = make([]uint32, n)
		t.candSlots = make([]uint64, n)
		t.miss = make([]bool, n)
		t.gSlots = make([]uint64, n)
		t.gEnt = make([]entry, n)
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
	t.ensureScratch(n)
	// Pass 0 is fused with pending-set construction: every row probes its
	// home slot straight from the hash vector, so the rows/slots scratch
	// is only written for the minority that must re-probe.
	entries := t.entries
	mask := uint64(len(entries)) - 1
	rows, slots := t.rows, t.slots
	nPend, nCand, resolved := 0, 0, 0
	if len(entries) >= gatherMinSlots {
		// Out-of-cache table: gather stage first (see package doc).
		gSlots, gEnt := t.gSlots[:n], t.gEnt[:n]
		if sel == nil {
			for i := 0; i < n; i++ {
				s := hashes[i] & mask
				gSlots[i] = s
				gEnt[i] = entries[s]
			}
		} else {
			for k, i := range sel[:n] {
				s := hashes[i] & mask
				gSlots[k] = s
				gEnt[k] = entries[s]
			}
		}
		if sel == nil {
			for k := 0; k < n; k++ {
				h := hashes[k]
				s := gSlots[k]
				e := gEnt[k]
				if e.tag == 0 {
					// Re-read: an earlier row of this batch may have
					// claimed the slot after the gather snapshot.
					e = entries[s]
				}
				if e.tag == 0 {
					// Claim: later rows of this pass see the entry.
					v := alloc(int32(k))
					entries[s] = entry{tag: tagOf(h), val: v}
					t.used++
					out[k] = v
					resolved++
					continue
				}
				if e.tag == tagOf(h) {
					t.candRows[nCand] = int32(k)
					t.candVals[nCand] = e.val
					t.candSlots[nCand] = s
					nCand++
					continue
				}
				rows[nPend] = int32(k)
				slots[nPend] = (s + 1) & mask
				nPend++
			}
		} else {
			for k, i := range sel[:n] {
				h := hashes[i]
				s := gSlots[k]
				e := gEnt[k]
				if e.tag == 0 {
					e = entries[s]
				}
				if e.tag == 0 {
					v := alloc(i)
					entries[s] = entry{tag: tagOf(h), val: v}
					t.used++
					out[i] = v
					resolved++
					continue
				}
				if e.tag == tagOf(h) {
					t.candRows[nCand] = i
					t.candVals[nCand] = e.val
					t.candSlots[nCand] = s
					nCand++
					continue
				}
				rows[nPend] = i
				slots[nPend] = (s + 1) & mask
				nPend++
			}
		}
	} else if sel == nil {
		for i := 0; i < n; i++ {
			h := hashes[i]
			s := h & mask
			e := entries[s]
			if e.tag == 0 {
				v := alloc(int32(i))
				entries[s] = entry{tag: tagOf(h), val: v}
				t.used++
				out[i] = v
				resolved++
				continue
			}
			if e.tag == tagOf(h) {
				t.candRows[nCand] = int32(i)
				t.candVals[nCand] = e.val
				t.candSlots[nCand] = s
				nCand++
				continue
			}
			rows[nPend] = int32(i)
			slots[nPend] = (s + 1) & mask
			nPend++
		}
	} else {
		for _, i := range sel[:n] {
			h := hashes[i]
			s := h & mask
			e := entries[s]
			if e.tag == 0 {
				v := alloc(i)
				entries[s] = entry{tag: tagOf(h), val: v}
				t.used++
				out[i] = v
				resolved++
				continue
			}
			if e.tag == tagOf(h) {
				t.candRows[nCand] = i
				t.candVals[nCand] = e.val
				t.candSlots[nCand] = s
				nCand++
				continue
			}
			rows[nPend] = i
			slots[nPend] = (s + 1) & mask
			nPend++
		}
	}
	if nCand > 0 {
		miss := t.miss[:nCand]
		for j := range miss {
			miss[j] = false
		}
		eq(t.candRows, t.candVals, miss, nCand)
		for j := 0; j < nCand; j++ {
			if miss[j] {
				rows[nPend] = t.candRows[j]
				slots[nPend] = (t.candSlots[j] + 1) & mask
				nPend++
				continue
			}
			out[t.candRows[j]] = t.candVals[j]
			resolved++
		}
	}
	t.note(0, resolved)
	pending := nPend
	next, nextSlots := t.rows2, t.slots2
	for dist := 1; pending > 0; dist++ {
		resolved = 0
		nPend, nCand = 0, 0
		for k := 0; k < pending; k++ {
			i := rows[k]
			s := slots[k]
			h := hashes[i]
			e := entries[s&mask]
			if e.tag == 0 {
				v := alloc(i)
				entries[s&mask] = entry{tag: tagOf(h), val: v}
				t.used++
				out[i] = v
				resolved++
				continue
			}
			if e.tag == tagOf(h) {
				t.candRows[nCand] = i
				t.candVals[nCand] = e.val
				t.candSlots[nCand] = s
				nCand++
				continue
			}
			next[nPend] = i
			nextSlots[nPend] = (s + 1) & mask
			nPend++
		}
		if nCand > 0 {
			miss := t.miss[:nCand]
			for j := range miss {
				miss[j] = false
			}
			eq(t.candRows, t.candVals, miss, nCand)
			for j := 0; j < nCand; j++ {
				if miss[j] {
					next[nPend] = t.candRows[j]
					nextSlots[nPend] = (t.candSlots[j] + 1) & mask
					nPend++
					continue
				}
				out[t.candRows[j]] = t.candVals[j]
				resolved++
			}
		}
		t.note(dist, resolved)
		rows, next = next, rows
		slots, nextSlots = nextSlots, slots
		pending = nPend
	}
}

// Find maps every live row's hash to its payload or -1 when the key is
// absent: out[i] = int32(payload) or -1. Same pass structure as
// FindOrInsert without insertion — an empty slot resolves the row as a
// miss.
func (t *Table) Find(hashes []uint64, sel []int32, n int, out []int32, eq EqFn) {
	if n == 0 {
		return
	}
	t.ensureScratch(n)
	// Same fused pass-0 shape as FindOrInsert (see there): rows resolve
	// straight off the hash vector and only re-probers touch scratch.
	entries := t.entries
	mask := uint64(len(entries)) - 1
	rows, slots := t.rows, t.slots
	nPend, nCand, resolved := 0, 0, 0
	if len(entries) >= gatherMinSlots {
		// Out-of-cache table: gather stage first (see package doc). No
		// re-read in classify — Find never writes entries.
		gSlots, gEnt := t.gSlots[:n], t.gEnt[:n]
		if sel == nil {
			for i := 0; i < n; i++ {
				s := hashes[i] & mask
				gSlots[i] = s
				gEnt[i] = entries[s]
			}
		} else {
			for k, i := range sel[:n] {
				s := hashes[i] & mask
				gSlots[k] = s
				gEnt[k] = entries[s]
			}
		}
		if sel == nil {
			for k := 0; k < n; k++ {
				h := hashes[k]
				e := gEnt[k]
				if e.tag == 0 {
					out[k] = -1
					resolved++
					continue
				}
				if e.tag == tagOf(h) {
					t.candRows[nCand] = int32(k)
					t.candVals[nCand] = e.val
					t.candSlots[nCand] = gSlots[k]
					nCand++
					continue
				}
				rows[nPend] = int32(k)
				slots[nPend] = (gSlots[k] + 1) & mask
				nPend++
			}
		} else {
			for k, i := range sel[:n] {
				h := hashes[i]
				e := gEnt[k]
				if e.tag == 0 {
					out[i] = -1
					resolved++
					continue
				}
				if e.tag == tagOf(h) {
					t.candRows[nCand] = i
					t.candVals[nCand] = e.val
					t.candSlots[nCand] = gSlots[k]
					nCand++
					continue
				}
				rows[nPend] = i
				slots[nPend] = (gSlots[k] + 1) & mask
				nPend++
			}
		}
	} else if sel == nil {
		for i := 0; i < n; i++ {
			h := hashes[i]
			s := h & mask
			e := entries[s]
			if e.tag == 0 {
				out[i] = -1
				resolved++
				continue
			}
			if e.tag == tagOf(h) {
				t.candRows[nCand] = int32(i)
				t.candVals[nCand] = e.val
				t.candSlots[nCand] = s
				nCand++
				continue
			}
			rows[nPend] = int32(i)
			slots[nPend] = (s + 1) & mask
			nPend++
		}
	} else {
		for _, i := range sel[:n] {
			h := hashes[i]
			s := h & mask
			e := entries[s]
			if e.tag == 0 {
				out[i] = -1
				resolved++
				continue
			}
			if e.tag == tagOf(h) {
				t.candRows[nCand] = i
				t.candVals[nCand] = e.val
				t.candSlots[nCand] = s
				nCand++
				continue
			}
			rows[nPend] = i
			slots[nPend] = (s + 1) & mask
			nPend++
		}
	}
	if nCand > 0 {
		miss := t.miss[:nCand]
		for j := range miss {
			miss[j] = false
		}
		eq(t.candRows, t.candVals, miss, nCand)
		for j := 0; j < nCand; j++ {
			if miss[j] {
				rows[nPend] = t.candRows[j]
				slots[nPend] = (t.candSlots[j] + 1) & mask
				nPend++
				continue
			}
			out[t.candRows[j]] = int32(t.candVals[j])
			resolved++
		}
	}
	t.note(0, resolved)
	pending := nPend
	next, nextSlots := t.rows2, t.slots2
	for dist := 1; pending > 0; dist++ {
		resolved = 0
		nPend, nCand = 0, 0
		for k := 0; k < pending; k++ {
			i := rows[k]
			s := slots[k]
			h := hashes[i]
			e := entries[s&mask]
			if e.tag == 0 {
				out[i] = -1
				resolved++
				continue
			}
			if e.tag == tagOf(h) {
				t.candRows[nCand] = i
				t.candVals[nCand] = e.val
				t.candSlots[nCand] = s
				nCand++
				continue
			}
			next[nPend] = i
			nextSlots[nPend] = (s + 1) & mask
			nPend++
		}
		if nCand > 0 {
			miss := t.miss[:nCand]
			for j := range miss {
				miss[j] = false
			}
			eq(t.candRows, t.candVals, miss, nCand)
			for j := 0; j < nCand; j++ {
				if miss[j] {
					next[nPend] = t.candRows[j]
					nextSlots[nPend] = (t.candSlots[j] + 1) & mask
					nPend++
					continue
				}
				out[t.candRows[j]] = int32(t.candVals[j])
				resolved++
			}
		}
		t.note(dist, resolved)
		rows, next = next, rows
		slots, nextSlots = nextSlots, slots
		pending = nPend
	}
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

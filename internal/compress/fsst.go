package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// FSST (Boncz, Neumann and Leis, VLDB 2020) codes a VARCHAR chunk with a
// table of at most 255 symbols of 1 to 8 bytes, trained on a sample of
// the chunk: each row becomes a string of one-byte codes, code c standing
// for symbol c and code 255 escaping the byte after it. The encoding is
// greedy, the longest symbol at each position, so it is a function of the
// table and the string alone: two rows of a chunk are equal exactly when
// their codes are, and a constant encoded with the chunk's table compares
// with the rows' codes byte for byte.
//
// Payload layout, after the frame:
//
//	nsym   byte: symbols in the table, at most 255
//	nsym   bytes: each symbol's length, 1 to 8
//	       the symbols' bytes, in code order
//	       every row's code length as a uvarint
//	       every row's codes, contiguous
//
// The rows are laid out as a plain-str chunk's are, codes for bytes, so a
// chunk decodes to n+1 offsets over its own codes and its symbol table
// (DecompressStrArena), and a row is decoded only when it is read.

// FSSTEscape is the code whose next byte stands for itself.
const FSSTEscape = 255

const (
	fsstMaxSymbols = 255
	fsstMaxLen     = 8
	// fsstCodes is the training code space: codes below 256 stand for one
	// byte each (an escape once the table is final), code 256+i for symbol
	// i.
	fsstCodes = 256 + fsstMaxSymbols
	// fsstHashSlots holds the symbols of 3 bytes or more, one a slot, by
	// the hash of their first three bytes.
	fsstHashBits  = 10
	fsstHashSlots = 1 << fsstHashBits
	// fsstSampleBytes bounds the training sample, taken as pieces of at
	// most fsstSampleLine bytes of rows picked at random.
	fsstSampleBytes = 1 << 14
	fsstSampleLine  = 512
)

// Symbols is a chunk's FSST symbol table, as decoded: code c < Len()
// stands for the first symLen[c] bytes of sym[c], little-endian. Every
// other code is no symbol (symLen 0), and FSSTEscape precedes a byte that
// stands for itself.
type Symbols struct {
	sym    [256]uint64
	symLen [256]uint8
	n      int
}

// Len returns the number of symbols.
func (t *Symbols) Len() int { return t.n }

// Symbol returns the bytes code c stands for, little-endian, and their
// count: none when c is no symbol.
func (t *Symbols) Symbol(c byte) (sym uint64, n int) { return t.sym[c], int(t.symLen[c]) }

// Size returns the bytes a decoded table occupies, for the buffer pool's
// accounting.
func (t *Symbols) Size() int { return 8*len(t.sym) + len(t.symLen) + 8 }

// DecodedLen returns the length of the bytes codes stand for. The codes
// are a row of a chunk DecompressStrArena accepted: no escape is last.
func (t *Symbols) DecodedLen(codes []byte) int {
	n := 0
	for i := 0; i < len(codes); i++ {
		if c := codes[i]; c != FSSTEscape {
			n += int(t.symLen[c])
		} else {
			n++
			i++
		}
	}
	return n
}

// Decode appends the bytes codes stand for to dst. When dst has 7 bytes
// of capacity to spare past them, each symbol is one 8-byte store.
func (t *Symbols) Decode(dst, codes []byte) []byte {
	for i := 0; i < len(codes); i++ {
		c := codes[i]
		switch k := len(dst); {
		case c == FSSTEscape:
			i++
			dst = append(dst, codes[i])
		case cap(dst)-k >= 8:
			dst = dst[:k+8]
			binary.LittleEndian.PutUint64(dst[k:], t.sym[c])
			dst = dst[:k+int(t.symLen[c])]
		default:
			for j := range t.symLen[c] {
				dst = append(dst, byte(t.sym[c]>>(8*j)))
			}
		}
	}
	return dst
}

// Encode appends the codes of s to dst: at each position the longest
// symbol that matches, or an escape. It is the chunk encoder's rule
// without its lookup tables, for a few constants a chunk.
func (t *Symbols) Encode(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		best, bestLen := FSSTEscape, 0
		w := load64(s, i)
		for c := range t.n {
			l := int(t.symLen[c])
			if l > bestLen && l <= len(s)-i && w&lenMask(l) == t.sym[c] {
				best, bestLen = c, l
			}
		}
		if bestLen == 0 {
			dst = append(dst, FSSTEscape, s[i])
			i++
			continue
		}
		dst = append(dst, byte(best))
		i += bestLen
	}
	return dst
}

// load64 returns the up to 8 bytes of s from i on, little-endian, zero
// past its end.
func load64[S ~string | ~[]byte](s S, i int) uint64 {
	if len(s)-i >= 8 {
		return le64(s, i)
	}
	var w uint64
	for j := len(s) - 1; j >= i; j-- {
		w = w<<8 | uint64(s[j])
	}
	return w
}

// le64 returns the 8 bytes of s from i on, little-endian: one load.
func le64[S ~string | ~[]byte](s S, i int) uint64 {
	_ = s[i+7]
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// lenMask keeps the low l bytes of a word, 1 <= l <= 8.
func lenMask(l int) uint64 { return math.MaxUint64 >> (64 - 8*l) }

// fsstHash hashes a symbol's first three bytes to a slot.
func fsstHash(w uint64) int {
	h := (w & 0xFFFFFF) * 2971215073
	return int((h ^ h>>15) & (fsstHashSlots - 1))
}

// An fsstEntry is a lookup's answer: a training code and, shifted by 12,
// the length of its symbol.
type fsstEntry = uint16

func entryOf(code, l int) fsstEntry { return fsstEntry(code | l<<12) }

// fsstSlot is a hash slot: a symbol of 3 bytes or more, the mask that
// keeps its bytes of a word, and its entry; or empty (emptySlot), which
// matches no word.
type fsstSlot struct {
	sym, mask uint64
	entry     fsstEntry
}

var emptySlot = fsstSlot{sym: 1}

// fsstTable is a symbol table as the encoder and the trainer look it up,
// in the training code space (fsstCodes). Its invariant is that of
// Symbols.Encode: at most one symbol of 3 bytes or more a hash slot, so
// that a longest match at a position is the slot's symbol when it
// matches, else the entry shortCodes holds for the position's first two
// bytes.
type fsstTable struct {
	n      int // symbols; symbol i has code 256+i
	sym    [fsstMaxSymbols]uint64
	symLen [fsstMaxSymbols]uint8
	hash   [fsstHashSlots]fsstSlot
	// byteCodes holds each byte's entry: its one-byte symbol's, or the
	// byte's own code.
	byteCodes [256]fsstEntry
	// shortCodes holds, for each pair of bytes (little-endian), the entry
	// of its two-byte symbol, or else its first byte's. finish fills it.
	shortCodes [1 << 16]fsstEntry
}

// newFSSTTable returns an empty table: every byte codes as itself.
func newFSSTTable() *fsstTable {
	t := new(fsstTable)
	for i := range t.hash {
		t.hash[i] = emptySlot
	}
	t.reset()
	return t
}

// reset empties the table; finish makes it ready for lookups.
func (t *fsstTable) reset() {
	for i := range t.n {
		if t.symLen[i] >= 3 {
			t.hash[fsstHash(t.sym[i])] = emptySlot
		}
	}
	t.n = 0
	for b := range t.byteCodes {
		t.byteCodes[b] = entryOf(b, 1)
	}
}

// add appends a symbol unless it is of 3 bytes or more and its hash slot
// is taken.
func (t *fsstTable) add(sym uint64, l int) {
	e := entryOf(256+t.n, l)
	switch l {
	case 1:
		t.byteCodes[sym] = e
	case 2:
	default:
		s := &t.hash[fsstHash(sym)]
		if *s != emptySlot {
			return
		}
		*s = fsstSlot{sym: sym, mask: lenMask(l), entry: e}
	}
	t.sym[t.n], t.symLen[t.n] = sym, uint8(l)
	t.n++
}

// finish fills shortCodes from byteCodes and the two-byte symbols.
func (t *fsstTable) finish() {
	copy(t.shortCodes[:], t.byteCodes[:])
	for n := len(t.byteCodes); n < len(t.shortCodes); n *= 2 {
		copy(t.shortCodes[n:], t.shortCodes[:n])
	}
	for i := range t.n {
		if t.symLen[i] == 2 {
			t.shortCodes[t.sym[i]] = entryOf(256+i, 2)
		}
	}
}

// longest returns the entry of the longest symbol matching at a position,
// w being the 8 bytes from the position on and rest the bytes of the
// string there.
func (t *fsstTable) longest(w uint64, rest int) fsstEntry {
	e := t.shortCodes[uint16(w)]
	if rest < 2 {
		e = t.byteCodes[uint8(w)]
	}
	if s := &t.hash[fsstHash(w)]; w&s.mask == s.sym && int(s.entry>>12) <= rest {
		e = s.entry
	}
	return e
}

// longest8 is longest where every symbol fits: 8 bytes or more are left.
// It chooses by a select, not a branch.
func (t *fsstTable) longest8(w uint64) fsstEntry {
	e := t.shortCodes[uint16(w)]
	if s := &t.hash[fsstHash(w)]; w&s.mask == s.sym {
		e = s.entry
	}
	return e
}

// fsstCounters are the trainer's counts in the training code space: of
// each code, and of each pair of codes that follow one another, with the
// pairs counted at least once listed in pairs. A sample of at most
// fsstSampleBytes + fsstSampleLine bytes counts at most twice that a
// code, within a uint16.
type fsstCounters struct {
	one   [fsstCodes]uint16
	two   *[fsstCodes * fsstCodes]uint16
	pairs []uint32
}

func (c *fsstCounters) reset() {
	c.one = [fsstCodes]uint16{}
	for _, p := range c.pairs {
		c.two[p] = 0
	}
	c.pairs = c.pairs[:0]
}

func (c *fsstCounters) countPair(a, b int) {
	p := uint32(a*fsstCodes + b)
	if c.two[p] == 0 {
		c.pairs = append(c.pairs, p)
	}
	c.two[p]++
}

// fsstTrainer builds a chunk's table. Its counters and candidate set are
// arrays, reused across the five rounds of training.
type fsstTrainer struct {
	table *fsstTable
	cnt   fsstCounters
	cand  fsstCandidates
}

func newFSSTTrainer() *fsstTrainer {
	return &fsstTrainer{
		table: newFSSTTable(),
		cnt:   fsstCounters{two: new([fsstCodes * fsstCodes]uint16)},
		cand:  fsstCandidates{slot: new([1 << 15]fsstCandidate)},
	}
}

// symbolOf returns a training code's symbol and length.
func (t *fsstTable) symbolOf(code int) (uint64, int) {
	if code < 256 {
		return uint64(code), 1
	}
	return t.sym[code-256], int(t.symLen[code-256])
}

// count encodes the sample's lines chosen for this round (frac of 128,
// by a hash of the line's index) with the table, counting codes, and for
// frac < 128 pairs of codes, and returns the bytes the encoding saves.
func (tr *fsstTrainer) count(sample []string, frac int) int {
	t, c := tr.table, &tr.cnt
	gain := 0
	for li, line := range sample {
		if frac < 128 && int(uint32(li+1)*2654435761>>25) > frac {
			continue
		}
		prev := -1
		for i := 0; i < len(line); {
			e := t.longest(load64(line, i), len(line)-i)
			code, l := int(e&0xFFF), int(e>>12)
			gain += l - 1
			if code < 256 {
				gain-- // an escape costs two bytes
			}
			c.one[code]++
			if l > 1 { // the alternative: the first byte alone
				c.one[line[i]]++
			}
			if frac < 128 && prev >= 0 {
				c.countPair(prev, code)
				if l > 1 {
					c.countPair(prev, int(line[i]))
				}
			}
			prev = code
			i += l
		}
	}
	return gain
}

// fsstCandidate is a symbol the next table may hold and its gain: the
// bytes it would have saved over the round's sample.
type fsstCandidate struct {
	sym  uint64
	len  uint8
	gain uint32
}

// better orders candidates by gain, then by length and bytes, so that
// training is deterministic.
func (a *fsstCandidate) better(b *fsstCandidate) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.len != b.len {
		return a.len > b.len
	}
	return a.sym < b.sym
}

// fsstCandidates is an open-addressed set of candidates by symbol, which
// sums the gains of a symbol made more than once (a pair "ab"+"c" and
// "a"+"bc"), and lists the slots it fills. A round makes at most one
// candidate a code and a pair counted, fewer than 18 K, so its 32 K slots
// never fill.
type fsstCandidates struct {
	slot *[1 << 15]fsstCandidate
	used []uint16
	list []fsstCandidate
}

func (s *fsstCandidates) add(sym uint64, l int, gain uint32) {
	h := (sym*0x9E3779B97F4A7C15 + uint64(l)) >> 49
	for {
		e := &s.slot[h]
		switch {
		case e.len == 0:
			*e = fsstCandidate{sym: sym, len: uint8(l), gain: gain}
			s.used = append(s.used, uint16(h))
			return
		case e.sym == sym && int(e.len) == l:
			e.gain += gain
			return
		}
		h = (h + 1) & (1<<15 - 1)
	}
}

// makeTable replaces the table by the candidates of the round's counts
// with the largest gains: every code counted, at 8 times its gain when it
// is one byte, and, when pairs were counted, every pair's concatenation
// (cut to 8 bytes). A candidate whose hash slot a better one took is
// dropped and the next taken instead.
func (tr *fsstTrainer) makeTable(frac int) {
	t, c, s := tr.table, &tr.cnt, &tr.cand
	floor := uint16(5 * frac / 128)
	for code := range 256 + t.n {
		n1 := c.one[code]
		if n1 == 0 || n1 < floor {
			continue
		}
		sym, l := t.symbolOf(code)
		gain := uint32(n1) * uint32(l)
		if l == 1 {
			gain *= 8
		}
		s.add(sym, l, gain)
	}
	for _, p := range c.pairs {
		n2 := c.two[p]
		if n2 < floor {
			continue
		}
		a, b := int(p)/fsstCodes, int(p)%fsstCodes
		sa, la := t.symbolOf(a)
		if la == fsstMaxLen {
			continue
		}
		sb, lb := t.symbolOf(b)
		l := min(la+lb, fsstMaxLen)
		sym := (sa | sb<<(8*la)) & lenMask(l)
		s.add(sym, l, uint32(n2)*uint32(l))
	}
	s.list = s.list[:0]
	for _, h := range s.used {
		s.list = append(s.list, s.slot[h])
		s.slot[h] = fsstCandidate{}
	}
	s.used = s.used[:0]
	heapify(s.list)
	t.reset()
	for len(s.list) > 0 && t.n < fsstMaxSymbols {
		best := s.list[0]
		s.list[0] = s.list[len(s.list)-1]
		s.list = s.list[:len(s.list)-1]
		siftDown(s.list, 0)
		t.add(best.sym, int(best.len))
	}
	t.finish()
}

// heapify orders h as a heap whose root is the best candidate.
func heapify(h []fsstCandidate) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func siftDown(h []fsstCandidate, i int) {
	for {
		best := i
		for _, k := range [2]int{2*i + 1, 2*i + 2} {
			if k < len(h) && h[k].better(&h[best]) {
				best = k
			}
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// train builds the table for vals: FSST's five rounds over a sample of
// at most fsstSampleBytes, each counting with the table of the round
// before on a growing share of the sample (8, 38, 68, 98 and 128 of 128
// parts) and making the next from the counts. The table of the round that
// saved the most is kept, pruned of the symbols its own counts do not
// use.
func (tr *fsstTrainer) train(vals []string) {
	sample := fsstSample(vals)
	t := tr.table
	t.finish()
	var best struct { // the symbols of the best round's table
		n      int
		sym    [fsstMaxSymbols]uint64
		symLen [fsstMaxSymbols]uint8
	}
	bestGain := -1
	var bestOne [fsstCodes]uint16
	for frac := 8; ; frac += 30 {
		tr.cnt.reset()
		if gain := tr.count(sample, frac); gain >= bestGain {
			best.n, best.sym, best.symLen = t.n, t.sym, t.symLen
			bestGain, bestOne = gain, tr.cnt.one
		}
		if frac >= 128 {
			break
		}
		tr.makeTable(frac)
	}
	t.reset()
	for i := range best.n {
		t.add(best.sym[i], int(best.symLen[i]))
	}
	t.finish()
	tr.cnt.reset()
	tr.cnt.one = bestOne
	tr.makeTable(128)
}

// fsstSample returns vals when they total at most fsstSampleBytes, and
// otherwise pieces of rows picked by a fixed pseudo-random sequence (so
// that a chunk always trains the same table) until they do.
func fsstSample(vals []string) []string {
	total := 0
	for _, s := range vals {
		total += len(s)
	}
	if total <= fsstSampleBytes {
		return vals
	}
	var sample []string
	x := uint64(0x2545F4914F6CDD1D)
	for size := 0; size < fsstSampleBytes; {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s := vals[x%uint64(len(vals))]
		if pieces := (len(s) + fsstSampleLine - 1) / fsstSampleLine; pieces > 1 {
			lo := int(x>>32) % pieces * fsstSampleLine
			s = s[lo:min(lo+fsstSampleLine, len(s))]
		}
		sample = append(sample, s)
		size += max(len(s), 1)
	}
	return sample
}

// encode appends s's codes to dst with the trained table. The last
// fewer than 8 bytes are looked up in a copy, padded with zeros.
func (t *fsstTable) encode(dst []byte, s string) []byte {
	k := len(dst)
	if cap(dst)-k < 2*len(s) { // an escape a byte at most
		dst = slices.Grow(dst, 2*len(s))
	}
	dst = dst[:k+2*len(s)]
	i := 0
	for i+fsstMaxLen <= len(s) {
		w := le64(s, i)
		e := t.longest8(w)
		k, i = emit(dst, k, e, w), i+int(e>>12)
	}
	var tail [2 * fsstMaxLen]byte
	for j, rest := 0, copy(tail[:], s[i:]); j < rest; {
		w := le64(tail[:], j)
		e := t.longest(w, rest-j)
		k, j = emit(dst, k, e, w), j+int(e>>12)
	}
	return dst[:k]
}

// emit writes the code of entry e, found at a position whose 8 bytes are
// w, at dst[k], and returns the position after it. Symbol 256+i's code is
// i, the entry's low byte; a code below 256 is an escape of w's first
// byte, which is written after it either way.
func emit(dst []byte, k int, e fsstEntry, w uint64) int {
	esc := int(^e>>8) & 1
	dst[k], dst[k+1] = byte(e)|byte(-esc), byte(w)
	return k + 1 + esc
}

// encodeFSST appends vals as an FSST payload, or returns nil when its
// codes would not fit uint32 offsets.
func encodeFSST(dst []byte, vals []string) []byte {
	tr := newFSSTTrainer()
	tr.train(vals)
	t := tr.table
	dst = append(dst, byte(t.n))
	for i := range t.n {
		dst = append(dst, t.symLen[i])
	}
	for i := range t.n {
		for j := range t.symLen[i] {
			dst = append(dst, byte(t.sym[i]>>(8*j)))
		}
	}
	codes := make([]byte, 0, 2*len(vals)+16)
	lens := make([]uint32, len(vals))
	for i, s := range vals {
		k := len(codes)
		codes = t.encode(codes, s)
		lens[i] = uint32(len(codes) - k)
	}
	if uint64(len(codes)) > math.MaxUint32 {
		return nil
	}
	head := 0
	for _, l := range lens {
		head += uvarintLen(int(l))
	}
	dst = slices.Grow(dst, head+len(codes))
	for _, l := range lens {
		dst = appendUvarint(dst, uint64(l))
	}
	return append(dst, codes...)
}

// uvarintLen is the length of n as a uvarint.
func uvarintLen(n int) int { return (bits.Len(uint(n)|1) + 6) / 7 }

// readSymbols reads the symbol table at the head of an FSST payload and
// returns it with the rest of the payload.
func readSymbols(payload []byte) (*Symbols, []byte, error) {
	if len(payload) == 0 {
		return nil, nil, fmt.Errorf("compress: truncated fsst symbol table")
	}
	t := &Symbols{n: int(payload[0])}
	if t.n > fsstMaxSymbols || len(payload) < 1+t.n {
		return nil, nil, fmt.Errorf("compress: corrupt fsst symbol table of %d symbols", t.n)
	}
	lens, rest := payload[1:1+t.n], payload[1+t.n:]
	for c, l := range lens {
		if l < 1 || l > fsstMaxLen || int(l) > len(rest) {
			return nil, nil, fmt.Errorf("compress: corrupt fsst symbol %d of %d bytes", c, l)
		}
		t.sym[c], t.symLen[c] = load64(rest[:l], 0), l
		rest = rest[l:]
	}
	return t, rest, nil
}

// decodeFSST reads an FSST payload of n rows into its symbol table and
// the offsets of each row's codes over the codes, checking every row: no
// escape is its last code, and every other code is a symbol's.
func decodeFSST(payload []byte, n int) (*Symbols, []uint32, []byte, error) {
	t, rest, err := readSymbols(payload)
	if err != nil {
		return nil, nil, nil, err
	}
	off, codes, err := decodePlainStr(rest, n)
	if err != nil {
		return nil, nil, nil, err
	}
	for r := range n {
		lo, hi := int(off[r]), int(off[r+1])
		for i := lo; i < hi; i++ {
			if c := codes[i]; c == FSSTEscape {
				i++
				if i == hi {
					return nil, nil, nil, fmt.Errorf("compress: fsst row %d ends in an escape", r)
				}
			} else if int(c) >= t.n {
				return nil, nil, nil, fmt.Errorf("compress: fsst row %d holds code %d of a table of %d", r, c, t.n)
			}
		}
	}
	return t, off, codes, nil
}

package primitives

import "vectorwise/internal/compress"

// FSST kernels read a VARCHAR column laid out as an FSST arena: row i's
// codes are codes[off[i]:off[i+1]], decoded through its chunk's symbol
// table (compress.Symbols; vector.Vector's FSST arena). Equality needs no
// kernel of its own: a constant encoded with the chunk's table compares
// with the rows' codes as an arena kernel compares bytes (SelCmpArena,
// SelInSetArena). A LIKE of a fast shape runs an automaton on the codes
// (LikeCodes); every other predicate decodes the live rows (DecodeRows)
// and runs its arena kernel on them.

// maxLikeCodes bounds the literal a LikeCodes is built for, so its states
// fit a byte and its tables stay small: a longer one decodes instead.
const maxLikeCodes = 64

// LikeCodes is a LIKE pattern of a fast shape (LikeExact, LikePrefix,
// LikeSuffix, LikeContains) run on FSST codes. It is a byte automaton over
// the pattern's literal, lifted per symbol table to one transition per
// (state, code): a symbol's bytes step the automaton one after another,
// so a match that spans two symbols, or starts inside one, is found. An
// escaped byte steps the byte automaton itself.
type LikeCodes struct {
	step   []uint8 // the byte automaton: the state after byte b in state q is step[q<<8|b]
	accept uint8   // a row matches when it ends in this state
	stop   uint8   // from a state at or past stop no byte changes the outcome
	sym    *compress.Symbols
	lifted []uint8 // step lifted to sym's codes: lifted[q<<8|c]
}

// NewLikeCodes returns the automaton of pattern, or nil when pattern is
// of the general shape or its literal is longer than maxLikeCodes bytes.
//
// Its states are the literal's bytes matched so far, 0 to m. A contains
// or suffix automaton is the literal's Knuth-Morris-Pratt automaton; a
// contains one stays in m once there, and a suffix one leaves it as KMP
// does, so it ends in m exactly when the row ends with the literal. A
// prefix or exact one has a dead state m+1 for a mismatch; a prefix one
// stays in m, and an exact one dies after it.
func NewLikeCodes(pattern string) *LikeCodes {
	shape, lit := ClassifyLike(pattern)
	m := len(lit)
	if shape == LikeGeneral || m > maxLikeCodes {
		return nil
	}
	states := m + 1
	if shape == LikePrefix || shape == LikeExact {
		states++
	}
	a := &LikeCodes{step: make([]uint8, states<<8), accept: uint8(m), stop: uint8(states)}
	row := func(q int) []uint8 { return a.step[q<<8 : (q+1)<<8] }
	fill := func(q, to int) {
		for b := range row(q) {
			row(q)[b] = uint8(to)
		}
	}
	switch shape {
	case LikeContains, LikeSuffix:
		x := 0 // the state KMP restarts from after the bytes matched so far
		for q := range m {
			copy(row(q), row(x)) // row(0) is all zero: any byte restarts
			row(q)[lit[q]] = uint8(q + 1)
			if q > 0 {
				x = int(row(x)[lit[q]])
			}
		}
		if shape == LikeContains {
			fill(m, m)
			a.stop = uint8(m)
		} else {
			copy(row(m), row(x))
		}
	default:
		dead := m + 1
		for q := range m {
			fill(q, dead)
			row(q)[lit[q]] = uint8(q + 1)
		}
		fill(dead, dead)
		if shape == LikePrefix {
			fill(m, m)
			a.stop = uint8(m)
		} else {
			fill(m, dead)
			a.stop = uint8(dead)
		}
	}
	return a
}

// lift builds the transitions on sym's codes: each state stepped by each
// symbol's bytes.
func (a *LikeCodes) lift(sym *compress.Symbols) {
	states := len(a.step) >> 8
	if len(a.lifted) < len(a.step) {
		a.lifted = make([]uint8, len(a.step))
	}
	for c := range sym.Len() {
		w, n := sym.Symbol(byte(c))
		for q := range states {
			s := uint8(q)
			for j := range n {
				s = a.step[int(s)<<8|int(byte(w>>(8*j)))]
			}
			a.lifted[q<<8|c] = s
		}
	}
	a.sym = sym
}

// match reports whether a row's codes match.
func (a *LikeCodes) match(codes []byte) bool {
	q := uint8(0)
	for i := 0; i < len(codes) && q < a.stop; i++ {
		if c := codes[i]; c != compress.FSSTEscape {
			q = a.lifted[int(q)<<8|int(c)]
		} else {
			i++
			q = a.step[int(q)<<8|int(codes[i])]
		}
	}
	return q == a.accept
}

// Sel selects live i where row i of the FSST arena (off, codes) coded by
// sym LIKE the pattern is want (false: NOT LIKE). The automaton is lifted
// to sym's codes when sym is not the table it was last lifted for.
func (a *LikeCodes) Sel(res []int32, off []uint32, codes []byte, sym *compress.Symbols, want bool, sel []int32, n int) int {
	if a.sym != sym {
		a.lift(sym)
	}
	k := 0
	if sel == nil {
		off = off[:n+1]
		for i := 0; i < n; i++ {
			if a.match(codes[off[i]:off[i+1]]) == want {
				res[k] = int32(i)
				k++
			}
		}
		return k
	}
	for _, i := range sel[:n] {
		if a.match(codes[off[i]:off[i+1]]) == want {
			res[k] = i
			k++
		}
	}
	return k
}

// DecodeRows decodes the live rows sel[:n] (rows [0, n) when sel is nil)
// of the FSST arena (off, codes) coded by sym into a plain arena over the
// same row positions, in which a row that is not live is empty, and
// returns its offsets and bytes. It reuses dstOff and dst: the arena is a
// predicate's scratch, valid until its next call.
func DecodeRows(dstOff []uint32, dst []byte, off []uint32, codes []byte, sym *compress.Symbols, sel []int32, n int) ([]uint32, []byte) {
	rows := n
	if sel != nil {
		rows = 0
		if n > 0 {
			rows = int(sel[n-1]) + 1
		}
	}
	if cap(dstOff) < rows+1 {
		dstOff = make([]uint32, rows+1)
	}
	dstOff, dst = dstOff[:rows+1], dst[:0]
	j := 0 // the next row whose offset is unset
	for k := range n {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		for ; j <= i; j++ {
			dstOff[j] = uint32(len(dst))
		}
		dst = sym.Decode(dst, codes[off[i]:off[i+1]])
	}
	dstOff[j] = uint32(len(dst))
	return dstOff, dst
}

package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"slices"

	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort materializes its input into columnar buffers, normalizes every
// row's keys into one fixed-width byte-comparable entry ending in the
// row id, orders the flat entry array with an in-place MSD radix sort,
// and streams the rows back out gathered through the sorted entries' row
// ids. (X100 sorts are also stop-and-go materializers; vectors only bound
// the unit of data movement.) A key that is a plain column reference
// sorts on its payload column's buffer; any other key is evaluated per
// input batch and stored beside the payload.
//
// An entry holds, per key, an indicator byte if the key's buffer carries
// NULLs and then the code a primitives.SortKey* kernel writes, and after
// the keys the big-endian row id, which makes the order total — and equal
// to a stable sort's, ties in input order. A VARCHAR key's code is only a
// prefix, so the entry stops at the first one: the radix pass orders
// everything before and including that prefix, and each run of entries
// still equal there is finished by comparing the stored values from that
// key on.
//
// With a bound (NewTopN) it never holds more than 2·max(bound, vecSize)
// rows: when the buffers fill it sorts them, keeps the first bound rows in
// their input order, and goes on reading.
type Sort struct {
	child   Operator
	keys    []SortKey
	bound   int64 // rows to emit; < 0: all of them
	vecSize int

	cols      []*colBuf // payload columns
	keyC      []*colBuf // key columns
	keyShared []bool    // keyC[i] is one of cols
	rows      int       // rows stored; once sorted, rows to emit
	entries   []byte    // rows entries of width bytes, and one of scratch
	width     int       // entry bytes: encoded keys, then the row id
	tieFrom   int       // the first VARCHAR key, which entries end in, or len(keys)
	ids       []int32   // row ids: an output batch's, a tied run's, a cut's survivors
	out       vector.Batch
	built     bool
	outPos    int
	ctx       context.Context
}

// NewSort builds the operator.
func NewSort(child Operator, keys []SortKey) *Sort {
	return &Sort{child: child, keys: keys, bound: -1, vecSize: vector.DefaultSize}
}

// NewTopN builds a Sort that emits only its first n rows — ORDER BY ...
// LIMIT n — and holds memory in proportion to n, not to its input.
func NewTopN(child Operator, keys []SortKey, n int64) *Sort {
	s := NewSort(child, keys)
	s.bound = n
	return s
}

// Schema implements Operator.
func (s *Sort) Schema() *vtypes.Schema { return s.child.Schema() }

// SetContext implements ContextSetter.
func (s *Sort) SetContext(ctx context.Context) { s.ctx = ctx }

// Open implements Operator.
func (s *Sort) Open() error { return s.child.Open() }

// consume materializes the child and evaluated sort keys, then sorts.
func (s *Sort) consume() error {
	s.cols = newColBufs(s.child.Schema())
	keyExprs := make([]Expr, len(s.keys))
	for i, k := range s.keys {
		keyExprs[i] = k.Expr
	}
	s.keyC, s.keyShared = keyColBufs(keyExprs, s.cols)
	s.tieFrom = slices.IndexFunc(s.keyC, func(c *colBuf) bool { return c.kind.StorageClass() == vtypes.ClassStr })
	if s.tieFrom < 0 {
		s.tieFrom = len(s.keys)
	}
	for {
		// Cancellation point while materializing the input.
		if err := ctxErr(s.ctx); err != nil {
			return err
		}
		b, err := s.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if b.N == 0 {
			continue
		}
		if s.bound >= 0 && int64(s.rows) > s.bound && int64(s.rows+b.N) > 2*max(s.bound, int64(s.vecSize)) {
			if err := s.cut(); err != nil {
				return err
			}
		}
		for c, k := range s.keys {
			if s.keyShared[c] {
				continue
			}
			v, err := k.Expr.Eval(b)
			if err != nil {
				return err
			}
			s.keyC[c].append(v, b.Sel, b.N)
		}
		for c, buf := range s.cols {
			buf.append(b.Vecs[c], b.Sel, b.N)
		}
		s.rows += b.N
	}
	if err := s.sortRows(); err != nil {
		return err
	}
	if s.bound >= 0 {
		s.rows = int(min(int64(s.rows), s.bound))
	}
	return nil
}

// cut makes room in a bounded sort: only the first bound rows in sort
// order can still reach the output, so every other row is dropped. The
// survivors stay in input order, which keeps later ties stable.
func (s *Sort) cut() error {
	if err := s.sortRows(); err != nil {
		return err
	}
	s.rows = int(s.bound)
	s.ids = slices.Grow(s.ids[:0], s.rows)[:s.rows]
	s.rowIDs(s.ids, 0)
	slices.Sort(s.ids)
	for _, buf := range s.cols {
		buf.retain(s.ids)
	}
	for c, buf := range s.keyC {
		if !s.keyShared[c] {
			buf.retain(s.ids)
		}
	}
	return nil
}

// sortRows lays out the entries, encodes the stored rows' keys into them
// and orders them.
func (s *Sort) sortRows() error {
	if s.rows == 0 {
		return nil
	}
	encoded := s.keyC[:min(s.tieFrom+1, len(s.keys))]
	s.width = 4
	for _, buf := range encoded {
		s.width += buf.sortKeyBytes()
	}
	if size := (s.rows + 1) * s.width; cap(s.entries) < size {
		s.entries = make([]byte, size)
	} else {
		s.entries = s.entries[:size]
	}
	off := 0
	for c, buf := range encoded {
		buf.sortKeys(s.entries, s.width, off, s.keys[c].Desc)
		off += buf.sortKeyBytes()
	}
	primitives.SortKeyRowID(s.entries, s.width, off, 0, s.rows)
	e, tmp := s.entries[:s.rows*s.width], s.entries[s.rows*s.width:]
	need := len(e) // only the entries that will be emitted have to be in order
	if s.bound >= 0 && int64(s.rows) > s.bound {
		need = int(s.bound) * s.width
	}
	if s.tieFrom == len(s.keys) {
		// The row id takes part: no two entries are equal.
		return radixSort(s.ctx, e, s.width, 0, s.width, need, tmp)
	}
	if err := radixSort(s.ctx, e, s.width, 0, off, need, tmp); err != nil {
		return err
	}
	return s.breakTies(e, off, need)
}

// sortKeyBytes is the size of this column's slot in a sort entry.
func (c *colBuf) sortKeyBytes() int {
	n := 8
	switch c.kind.StorageClass() {
	case vtypes.ClassBool:
		n = 1
	case vtypes.ClassStr:
		n = primitives.SortKeyStrPrefix
	}
	if c.nulls != nil {
		n++
	}
	return n
}

// sortKeys writes the key code of every stored row into its entry at off.
func (c *colBuf) sortKeys(entries []byte, width, off int, desc bool) {
	chunk := primitives.ChunkRows * width
	voff := off
	if c.nulls != nil {
		voff++
	}
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		for i, ch := range c.i64 {
			primitives.SortKeyI64(entries[i*chunk:], width, voff, ch, nil, len(ch), desc)
		}
	case vtypes.ClassF64:
		for i, ch := range c.f64 {
			primitives.SortKeyF64(entries[i*chunk:], width, voff, ch, nil, len(ch), desc)
		}
	case vtypes.ClassStr:
		for i, ch := range c.str {
			primitives.SortKeyStr(entries[i*chunk:], width, voff, ch, nil, len(ch), desc)
		}
	case vtypes.ClassBool:
		for i, ch := range c.b {
			primitives.SortKeyBool(entries[i*chunk:], width, voff, ch, nil, len(ch), desc)
		}
	}
	for i, ch := range c.nulls {
		primitives.SortKeyNulls(entries[i*chunk:], width, off, c.sortKeyBytes()-1, ch, nil, len(ch), desc)
	}
}

// insertionMax is the largest bucket the radix sort hands to insertion
// sort instead of splitting further.
const insertionMax = 24

// radixSort orders the width-byte entries of e by their bytes [d, end),
// in place: an MSD (American flag) radix sort — count the values of byte
// d, swap every entry into its value's bucket, sort each bucket by the
// next byte. Only the first need bytes of e have to come out ordered (and
// holding the lowest entries): a bucket that starts past them is left as
// it falls. tmp holds one entry. A non-nil ctx is polled between the
// buckets of the first split.
func radixSort(ctx context.Context, e []byte, width, d, end, need int, tmp []byte) error {
	n := len(e) / width
	for n > insertionMax && d < end {
		var count [256]int
		for p := d; p < len(e); p += width {
			count[e[p]]++
		}
		if count[e[d]] == n { // all alike in this byte
			d++
			continue
		}
		var next, stop [256]int
		off := 0
		for b, k := range count {
			next[b] = off
			off += k * width
			stop[b] = off
		}
		for b := range count {
			for next[b] < stop[b] {
				at := next[b]
				if v := e[at+d]; int(v) != b {
					swapEntries(e[at:at+width], e[next[v]:next[v]+width])
					next[v] += width
				} else {
					next[b] += width
				}
			}
		}
		off = 0
		for b, k := range count {
			if off >= need {
				break
			}
			if k > 1 {
				if err := ctxErr(ctx); err != nil {
					return err
				}
				if err := radixSort(nil, e[off:stop[b]], width, d+1, end, need-off, tmp); err != nil {
					return err
				}
			}
			off = stop[b]
		}
		return nil
	}
	if d >= end {
		return nil
	}
	// Insertion sort on what the entries do not already share.
	for i := width; i < len(e); i += width {
		j := i
		for j > 0 && bytes.Compare(e[j-width+d:j-width+end], e[i+d:i+end]) > 0 {
			j -= width
		}
		if j < i {
			copy(tmp, e[i:i+width])
			copy(e[j+width:i+width], e[j:i])
			copy(e[j:j+width], tmp)
		}
	}
	return nil
}

func swapEntries(a, b []byte) {
	for len(a) >= 8 && len(b) >= 8 {
		x, y := binary.LittleEndian.Uint64(a), binary.LittleEndian.Uint64(b)
		binary.LittleEndian.PutUint64(a, y)
		binary.LittleEndian.PutUint64(b, x)
		a, b = a[8:], b[8:]
	}
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
}

// rowIDs reads the row ids of the len(dst) entries from entry `from` on.
func (s *Sort) rowIDs(dst []int32, from int) {
	at := from*s.width + s.width - 4
	for k := range dst {
		dst[k] = int32(binary.BigEndian.Uint32(s.entries[at:]))
		at += s.width
	}
}

// breakTies finishes a sort whose entries end in a VARCHAR prefix: every
// run of entries equal on bytes [0, end) is ordered by the stored values
// of the key columns from that VARCHAR on, then by row id. Like radixSort
// it stops once the first need bytes of e are in order.
func (s *Sort) breakTies(e []byte, end, need int) error {
	w := s.width
	byValues := func(a, b int32) int {
		for c := s.tieFrom; c < len(s.keys); c++ {
			if r := s.keyC[c].compare(a, b); r != 0 {
				if s.keys[c].Desc {
					return -r
				}
				return r
			}
		}
		return cmp.Compare(a, b)
	}
	for lo := 0; lo < need; {
		hi := lo + w
		for hi < len(e) && bytes.Equal(e[lo:lo+end], e[hi:hi+end]) {
			hi += w
		}
		if n := (hi - lo) / w; n > 1 {
			if err := ctxErr(s.ctx); err != nil {
				return err
			}
			s.ids = slices.Grow(s.ids[:0], n)[:n]
			s.rowIDs(s.ids, lo/w)
			slices.SortFunc(s.ids, byValues)
			for k, id := range s.ids {
				binary.BigEndian.PutUint32(e[lo+k*w+end:], uint32(id))
			}
		}
		lo = hi
	}
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (*vector.Batch, error) {
	if err := ctxErr(s.ctx); err != nil {
		return nil, err
	}
	if s.bound == 0 {
		return nil, nil
	}
	if !s.built {
		if err := s.consume(); err != nil {
			return nil, err
		}
		s.built = true
		s.ids = slices.Grow(s.ids[:0], min(s.rows, s.vecSize))
	}
	n := min(s.rows-s.outPos, s.vecSize)
	if n <= 0 {
		return nil, nil
	}
	s.out.Vecs = outVectors(s.out.Vecs, s.Schema(), n, s.vecSize)
	s.ids = s.ids[:n]
	s.rowIDs(s.ids, s.outPos)
	for c, buf := range s.cols {
		buf.gather(s.out.Vecs[c], nil, s.ids, n)
	}
	s.outPos += n
	s.out.SetDense(n)
	return &s.out, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.cols, s.keyC, s.entries, s.ids, s.out = nil, nil, nil, nil, vector.Batch{}
	return s.child.Close()
}

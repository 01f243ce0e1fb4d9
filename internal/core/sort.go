package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"strings"

	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort materializes its input into columnar buffers, packs every row's
// keys into one entry of a flat array of W-word entries ending in the row
// id, orders the entries with an in-place MSD radix sort, and streams the
// rows back out of the sorted entries. (X100 sorts are also stop-and-go
// materializers; vectors only bound the unit of data movement.) A key
// that is a plain column reference sorts on its payload column's buffer;
// any other key is evaluated per input batch and stored beside the
// payload.
//
// An entry is one big-endian bit string of W uint64 words, packed most
// significant field first (primitives.SortField): per key, a 1-bit
// indicator if the key's buffer carries NULLs, then the key's field, and
// after the keys the row id in the bits rows − 1 needs, which makes the
// order total — and equal to a stable sort's, ties in input order. A
// fixed-width key is stored frame-of-reference: one pass over its stored
// codes finds their range [lo, hi], and the field holds code − lo, or
// hi − code under DESC, in bits.Len64(hi − lo) bits — none for a
// constant key, one for a BOOLEAN. A VARCHAR key keeps a 96-bit prefix,
// which is not injective, so the entry stops at the first one: the radix
// pass orders everything before and including that prefix, and each run
// of entries still equal there is finished by comparing the stored
// values from that key on.
//
// A payload column that is also a fixed-width key before any VARCHAR
// key, and carries no NULL, is read back out of the sorted entries (lo
// plus the stored bits) instead of gathered through the row ids, unless
// it is a DOUBLE that held a -0 or a NaN: -0 shares +0's code and every
// NaN one code, so neither decodes to the value stored.
//
// With a bound (NewTopN) it never holds more than 2·max(bound, vecSize)
// rows: when the buffers fill it sorts them, keeps the first bound rows in
// their input order, and goes on reading; each sort lays its entries out
// afresh for the rows it holds.
type Sort struct {
	child   Operator
	keys    []SortKey
	bound   int64 // rows to emit; < 0: all of them
	vecSize int

	cols    []*colBuf // payload columns
	keyC    []sortCol // per key: its buffer and its field in an entry
	rows    int       // rows stored; once sorted, rows to emit
	entries []uint64  // rows entries of width words
	width   int       // words an entry
	keyBits int       // bits of the encoded keys, which the row id follows
	rowID   primitives.SortField
	tieFrom int     // the first VARCHAR key, which entries end in, or len(keys)
	ids     []int32 // row ids: an output batch's, a tied run's, a cut's survivors
	// tie holds a tied run's values of the keys from tieFrom on, and perm
	// the run's positions in the order breakTies sorts them to.
	tie    []vector.Vector
	perm   []int32
	out    vector.Batch
	built  bool
	outPos int
	ctx    context.Context
}

// sortCol is one key's buffer and where its values sit in an entry.
type sortCol struct {
	buf *colBuf
	// field is a fixed-width key's value field, or a VARCHAR key's first
	// bit; a nullable key's indicator is the bit before it.
	field  primitives.SortField
	shared bool // buf is one of the payload columns
	// exact: the entries hold every value of this non-nullable payload
	// column as it is stored, so Next reads it back instead of gathering.
	exact bool
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
	s.keyC = make([]sortCol, len(s.keys))
	s.tieFrom = len(s.keys)
	for i, k := range s.keys {
		s.keyC[i].buf, s.keyC[i].shared = keyColBuf(k.Expr, s.cols)
		if s.tieFrom == len(s.keys) && k.Expr.Kind().StorageClass() == vtypes.ClassStr {
			s.tieFrom = i
		}
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
			if s.keyC[c].shared {
				continue
			}
			v, err := k.Expr.Eval(b)
			if err != nil {
				return err
			}
			s.keyC[c].buf.append(v, b.Sel, b.N)
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
	for _, k := range s.keyC {
		if !k.shared {
			k.buf.retain(s.ids)
		}
	}
	return nil
}

// sortRows lays out the entries for the stored rows, packs their keys
// into them and orders them.
func (s *Sort) sortRows() error {
	if s.rows == 0 {
		return nil
	}
	off := 0
	for c := range s.keyC[:min(s.tieFrom+1, len(s.keys))] {
		off = s.keyC[c].layout(off, s.keys[c].Desc)
	}
	s.keyBits = off
	s.rowID = primitives.NewSortField(off, 0, uint64(s.rows-1), false)
	end := off + int(s.rowID.Width)
	s.width = max(1, (end+63)/64)
	if size := s.rows * s.width; cap(s.entries) < size {
		s.entries = make([]uint64, size)
	} else {
		s.entries = s.entries[:size]
	}
	for c := range s.keyC[:min(s.tieFrom+1, len(s.keys))] {
		s.keyC[c].pack(s.entries, s.width, s.keys[c].Desc)
	}
	primitives.SortKeyRowID(s.entries, s.width, s.rowID, 0, s.rows)
	need := s.rows // only the entries that will be emitted have to be in order
	if s.bound >= 0 && int64(s.rows) > s.bound {
		need = int(s.bound)
	}
	if s.tieFrom == len(s.keys) {
		// The row id takes part: no two entries are equal.
		return radixSort(s.ctx, s.entries, s.width, 0, (end+7)/8, need)
	}
	if err := radixSort(s.ctx, s.entries, s.width, 0, (s.keyBits+7)/8, need); err != nil {
		return err
	}
	return s.breakTies(s.entries, need)
}

// layout places the key's field at bit off of an entry, after a NULL
// indicator if its buffer carries NULLs, and returns the bit after it. A
// fixed-width key's field is as wide as the range of its stored codes.
func (k *sortCol) layout(off int, desc bool) int {
	c := k.buf
	if c.nulls != nil {
		off++
	}
	lo, hi, exact := uint64(math.MaxUint64), uint64(0), k.shared && c.nulls == nil
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		for _, ch := range c.i64 {
			lo, hi = primitives.RangeI64(ch, lo, hi)
		}
	case vtypes.ClassF64:
		for _, ch := range c.f64 {
			lo, hi, exact = primitives.RangeF64(ch, lo, hi, exact)
		}
	case vtypes.ClassBool:
		lo, hi = 0, 1
	case vtypes.ClassStr:
		k.field, k.exact = primitives.SortField{Off: int32(off)}, false
		return off + primitives.SortKeyStrBits
	}
	k.field, k.exact = primitives.NewSortField(off, lo, hi, desc), exact
	return off + int(k.field.Width)
}

// pack writes the key of every stored row into its entry.
func (k *sortCol) pack(entries []uint64, width int, desc bool) {
	c, f := k.buf, k.field
	chunk := primitives.ChunkRows * width
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		for i, ch := range c.i64 {
			primitives.SortKeyI64(entries[i*chunk:], width, f, ch)
		}
	case vtypes.ClassF64:
		for i, ch := range c.f64 {
			primitives.SortKeyF64(entries[i*chunk:], width, f, ch)
		}
	case vtypes.ClassStr:
		for i, ch := range c.str {
			primitives.SortKeyStr(entries[i*chunk:], width, int(f.Off), ch.ends, ch.b, desc)
		}
	case vtypes.ClassBool:
		for i, ch := range c.b {
			primitives.SortKeyBool(entries[i*chunk:], width, f, ch)
		}
	}
	if c.nulls == nil {
		return
	}
	valueBits := int(f.Width)
	if c.kind.StorageClass() == vtypes.ClassStr {
		valueBits = primitives.SortKeyStrBits
	}
	ind := primitives.NewSortField(int(f.Off)-1, 0, 1, desc)
	for i, ch := range c.nulls {
		primitives.SortKeyNulls(entries[i*chunk:], width, ind, valueBits, ch)
	}
}

// insertionMax is the largest bucket the radix sort hands to insertion
// sort instead of splitting further.
const insertionMax = 24

// radixSort orders the w-word entries of e by their bytes [d, end), the
// entry read as one big-endian bit string, in place: an MSD (American
// flag) radix sort — count the values of byte d, swap every entry into
// its value's bucket, sort each bucket by the next byte. Only the first
// need entries of e have to come out ordered (and holding the lowest
// entries): a bucket that starts past them is left as it falls. A
// non-nil ctx is polled between the buckets of the first split.
func radixSort(ctx context.Context, e []uint64, w, d, end, need int) error {
	n := len(e) / w
	for n > insertionMax && d < end {
		word, shift := d>>3, uint(56-8*(d&7))
		var count [256]int
		for p := word; p < len(e); p += w {
			count[byte(e[p]>>shift)]++
		}
		if count[byte(e[word]>>shift)] == n { // all alike in this byte
			d++
			continue
		}
		var next [256]int
		off := 0
		for b, k := range count {
			next[b] = off
			off += k * w
		}
		off = 0
		for b, k := range count {
			stop := off + k*w
			for next[b] < stop {
				at := next[b]
				if v := byte(e[at+word] >> shift); int(v) != b {
					to := next[v]
					x, y := e[at:at+w:at+w], e[to:to+w:to+w]
					for j := range x {
						x[j], y[j] = y[j], x[j]
					}
					next[v] += w
				} else {
					next[b] += w
				}
			}
			off = stop
		}
		off = 0
		for _, k := range count {
			if off >= need*w {
				break
			}
			if k > 1 {
				if err := ctxErr(ctx); err != nil {
					return err
				}
				if err := radixSort(nil, e[off:off+k*w], w, d+1, end, need-off/w); err != nil {
					return err
				}
			}
			off += k * w
		}
		return nil
	}
	if d >= end {
		return nil
	}
	// Insertion sort: a two-word entry is held in registers, any other
	// sinks by swaps.
	if w == 2 {
		for i := 2; i < len(e); i += 2 {
			x, y, j := e[i], e[i+1], i
			for ; j > 0 && (x < e[j-2] || x == e[j-2] && y < e[j-1]); j -= 2 {
				e[j], e[j+1] = e[j-2], e[j-1]
			}
			e[j], e[j+1] = x, y
		}
		return nil
	}
	for i := w; i < len(e); i += w {
		for j := i; j > 0 && slices.Compare(e[j:j+w], e[j-w:j]) < 0; j -= w {
			x, y := e[j-w:j:j], e[j:j+w:j+w]
			for k := range x {
				x[k], y[k] = y[k], x[k]
			}
		}
	}
	return nil
}

// rowIDs reads the row ids of the len(dst) entries from entry `from` on.
func (s *Sort) rowIDs(dst []int32, from int) {
	primitives.SortKeyReadRowIDs(dst, s.entries[from*s.width:], s.width, s.rowID)
}

// breakTies finishes a sort whose entries end in a VARCHAR prefix: every
// run of entries equal on their key bits is ordered by the values of the
// key columns from that VARCHAR on, then by row id. A run's values are
// gathered once, one typed vector a key, and its positions sorted over
// them: the VARCHAR's strings compared directly, and a later key only
// where they tie. The VARCHAR is NULL in all of a run's rows or in none,
// since its indicator is among the bits they share. Like radixSort it
// stops once the first need entries of e are in order.
func (s *Sort) breakTies(e []uint64, need int) error {
	w := s.width
	full, part := s.keyBits/64, ^uint64(0)<<(64-s.keyBits%64) // key words, and the key bits of the next
	same := func(a, b int) bool {
		return slices.Equal(e[a:a+full], e[b:b+full]) && (part == 0 || (e[a+full]^e[b+full])&part == 0)
	}
	if s.tie == nil {
		s.tie = make([]vector.Vector, len(s.keys)-s.tieFrom)
		for c := range s.tie {
			s.tie[c].Kind = s.keys[s.tieFrom+c].Expr.Kind()
		}
	}
	for lo := 0; lo < need*w; {
		hi := lo + w
		for hi < len(e) && same(lo, hi) {
			hi += w
		}
		if n := (hi - lo) / w; n > 1 {
			if err := ctxErr(s.ctx); err != nil {
				return err
			}
			s.ids = slices.Grow(s.ids[:0], n)[:n]
			s.rowIDs(s.ids, lo/w)
			s.sortRun(n)
			primitives.SortKeyRowIDs(e[lo:], w, s.rowID, s.ids)
		}
		lo = hi
	}
	return nil
}

// sortRun orders a tied run, the n row ids in s.ids, by the values of the
// keys from tieFrom on, then by row id.
func (s *Sort) sortRun(n int) {
	keys := s.keys[s.tieFrom:]
	for c := range keys {
		v := &s.tie[c]
		if v.Len() < n {
			*v = *vector.New(v.Kind, max(n, 2*v.Len()))
		}
		s.keyC[s.tieFrom+c].buf.gather(v, nil, s.ids, n)
	}
	s.perm = slices.Grow(s.perm[:0], n)[:n]
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	str, desc := s.tie[0].Str, keys[0].Desc
	// A NULL VARCHAR's stored string is not its value: NULLs tie on it
	// and are ordered from the next key on.
	null := s.tie[0].Nulls != nil && s.tie[0].Nulls[0]
	slices.SortFunc(s.perm, func(a, b int32) int {
		r := 0
		if !null {
			if r = strings.Compare(str[a], str[b]); desc {
				r = -r
			}
		}
		for c := 1; r == 0 && c < len(keys); c++ {
			if r = compareAt(&s.tie[c], a, b); keys[c].Desc {
				r = -r
			}
		}
		if r == 0 {
			return cmp.Compare(s.ids[a], s.ids[b])
		}
		return r
	})
	for k, i := range s.perm {
		s.perm[k] = s.ids[i]
	}
	copy(s.ids, s.perm)
}

// compareAt orders rows a and b of v, NULL first.
func compareAt(v *vector.Vector, a, b int32) int {
	if v.Nulls != nil && (v.Nulls[a] || v.Nulls[b]) {
		return cmp.Compare(btoi(v.Nulls[b]), btoi(v.Nulls[a]))
	}
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		return cmp.Compare(v.I64[a], v.I64[b])
	case vtypes.ClassF64:
		return cmp.Compare(v.F64[a], v.F64[b])
	case vtypes.ClassStr:
		return strings.Compare(v.Str[a], v.Str[b])
	default:
		return cmp.Compare(btoi(v.B[a]), btoi(v.B[b]))
	}
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
	e := s.entries[s.outPos*s.width:]
	s.ids = s.ids[:0]
	for c, buf := range s.cols {
		if k := s.readBack(buf); k != nil {
			dst, f := s.out.Vecs[c], k.field
			switch buf.kind.StorageClass() {
			case vtypes.ClassI64:
				primitives.SortKeyReadI64(dst.I64[:n], e, s.width, f)
			case vtypes.ClassF64:
				primitives.SortKeyReadF64(dst.F64[:n], e, s.width, f)
			default:
				primitives.SortKeyReadBool(dst.B[:n], e, s.width, f)
			}
			continue
		}
		if len(s.ids) == 0 {
			s.ids = s.ids[:n]
			s.rowIDs(s.ids, s.outPos)
		}
		buf.gather(s.out.Vecs[c], nil, s.ids, n)
	}
	s.outPos += n
	s.out.SetDense(n)
	return &s.out, nil
}

// readBack returns the key whose entries hold payload column buf's
// values exactly, or nil.
func (s *Sort) readBack(buf *colBuf) *sortCol {
	for c := range s.keyC[:s.tieFrom] {
		if k := &s.keyC[c]; k.exact && k.buf == buf {
			return k
		}
	}
	return nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.cols, s.keyC, s.entries, s.ids, s.out = nil, nil, nil, nil, vector.Batch{}
	s.tie, s.perm = nil, nil
	return s.child.Close()
}

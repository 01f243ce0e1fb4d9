package primitives

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"vectorwise/internal/vtypes"
)

// code is the uint64 a value's kind orders it by (VARCHAR: none).
func code(v vtypes.Value) uint64 {
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		return uint64(v.I64) ^ signBit
	case vtypes.ClassF64:
		return f64Code(v.F64)
	case vtypes.ClassBool:
		if v.B {
			return 1
		}
	}
	return 0
}

// packed is one value packed by the kernel of its kind into the middle of
// three entries that hold the key's bits at off and nothing after them.
type packed struct {
	entries []uint64
	stride  int
	f       SortField // the value's field: a VARCHAR's first bit only
	bits    int       // indicator and value
}

// packKey packs v into a field at bit off laid out for the codes [lo, hi]
// (after a NULL indicator when nullable), over entries filled with
// noise, and fails if any bit outside the field's changed.
func packKey(t *testing.T, v vtypes.Value, off int, lo, hi uint64, nullable, desc bool, noise uint64) packed {
	t.Helper()
	voff := off
	if nullable {
		voff++
	}
	p := packed{f: NewSortField(voff, lo, hi, desc)}
	width := int(p.f.Width)
	switch v.Kind.StorageClass() {
	case vtypes.ClassBool:
		p.f = NewSortField(voff, 0, 1, desc)
		width = 1
	case vtypes.ClassStr:
		p.f, width = SortField{Off: int32(voff)}, SortKeyStrBits
	}
	p.bits = voff - off + width
	p.stride = max(1, (off+p.bits+63)/64)
	p.entries = make([]uint64, 3*p.stride)
	for i := range p.entries {
		p.entries[i] = noise * uint64(i+1)
	}
	before := slices.Clone(p.entries)
	e := p.entries[p.stride:]
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		SortKeyI64(e, p.stride, p.f, []int64{v.I64})
	case vtypes.ClassF64:
		SortKeyF64(e, p.stride, p.f, []float64{v.F64})
	case vtypes.ClassStr:
		SortKeyStr(e, p.stride, voff, []uint32{uint32(len(v.Str))}, []byte(v.Str), desc)
	default:
		SortKeyBool(e, p.stride, p.f, []bool{v.B})
	}
	if nullable {
		SortKeyNulls(e, p.stride, NewSortField(off, 0, 1, desc), width, []bool{v.Null})
	}
	for i := range p.entries {
		field := fieldMask(i, p.stride, off, p.bits)
		if (p.entries[i]^before[i])&^field != 0 {
			t.Fatalf("%v in bits [%d, %d) of a %d-word entry changed word %d outside them: %x -> %x",
				v, off, off+p.bits, p.stride, i, before[i], p.entries[i])
		}
	}
	return p
}

// fieldMask is the part of word i of three stride-word entries that is
// bits [off, off+n) of the middle entry.
func fieldMask(i, stride, off, n int) uint64 {
	var m uint64
	for b := off; b < off+n; b++ {
		if stride+b/64 == i {
			m |= 1 << (63 - b%64)
		}
	}
	return m
}

// key returns the bits [off, off+p.bits) of the middle entry,
// left-aligned in words, for comparing two keys' fields.
func (p packed) key(off int) []uint64 {
	e := p.entries[p.stride : 2*p.stride]
	out := make([]uint64, (p.bits+63)/64)
	for b := 0; b < p.bits; b++ {
		at := off + b
		if e[at/64]>>(63-at%64)&1 != 0 {
			out[b/64] |= 1 << (63 - b%64)
		}
	}
	return out
}

// FuzzSortKeyOrder: two values packed into fields laid out for any code
// range [lo, hi] holding both, at any bit offset, compare word by word
// with the sign of Value.Compare, reversed under desc, for every kind,
// NULLs included; no kernel changes a bit outside its field; and BIGINT
// and every DOUBLE but -0 and NaN read back as themselves. A VARCHAR key
// is a prefix: it never orders two strings the wrong way round, and ties
// exactly when the strings' zero-padded prefixes do.
func FuzzSortKeyOrder(f *testing.F) {
	fb := func(x float64) int64 { return int64(math.Float64bits(x)) }
	const i64, f64, str, boolean = 0, 1, 2, 3
	const wide = math.MaxUint64
	f.Add(uint8(i64), false, false, false, int64(math.MinInt64), int64(math.MaxInt64), "", "", uint8(0), uint64(0), uint64(0))
	f.Add(uint8(i64), false, false, false, int64(math.MinInt64), int64(math.MaxInt64), "", "", uint8(64), uint64(0), uint64(0))
	f.Add(uint8(i64), true, false, false, int64(-1), int64(0), "", "", uint8(63), uint64(0), uint64(0))
	f.Add(uint8(i64), true, false, false, int64(7), int64(7), "", "", uint8(5), uint64(0), uint64(0)) // a constant key: no bits
	f.Add(uint8(i64), false, false, false, int64(0), int64(255), "", "", uint8(60), uint64(0), uint64(0))
	f.Add(uint8(i64), true, false, false, int64(0), int64(256), "", "", uint8(57), uint64(3), uint64(wide))
	f.Add(uint8(i64), false, true, false, int64(0), int64(math.MinInt64), "", "", uint8(1), uint64(0), uint64(0)) // NULL vs the lowest value
	f.Add(uint8(f64), false, false, false, fb(math.Copysign(0, -1)), fb(0), "", "", uint8(3), uint64(0), uint64(0))
	f.Add(uint8(f64), true, false, false, fb(math.NaN()), fb(math.Inf(-1)), "", "", uint8(100), uint64(0), uint64(0))
	f.Add(uint8(f64), false, false, false, int64(-1), fb(math.NaN()), "", "", uint8(0), uint64(0), uint64(0)) // two NaN payloads
	f.Add(uint8(f64), false, false, false, int64(1), int64(2), "", "", uint8(127), uint64(0), uint64(0))      // subnormals
	f.Add(uint8(f64), false, false, false, int64(1)|math.MinInt64, int64(1), "", "", uint8(9), uint64(0), uint64(0))
	f.Add(uint8(f64), true, false, true, fb(math.Inf(1)), int64(0), "", "", uint8(70), uint64(0), uint64(0)) // +Inf vs NULL, descending
	f.Add(uint8(f64), false, false, false, fb(-1.5), fb(-1.25), "", "", uint8(40), uint64(1), uint64(1))     // negatives invert
	f.Add(uint8(f64), true, false, false, fb(901), fb(104949.5), "", "", uint8(0), uint64(0), uint64(0))
	f.Add(uint8(str), false, false, false, int64(0), int64(0), "ab", "ab\x00", uint8(0), uint64(0), uint64(0)) // tie on the padded prefix
	f.Add(uint8(str), true, false, false, int64(0), int64(0), "Customer#000000001", "Customer#000000002", uint8(33), uint64(0), uint64(0))
	f.Add(uint8(str), false, false, false, int64(0), int64(0), "exactly12byt", "exactly12byte", uint8(31), uint64(0), uint64(0))
	f.Add(uint8(str), false, true, false, int64(0), int64(0), "", "", uint8(0), uint64(0), uint64(0)) // NULL vs the empty string
	f.Add(uint8(str), true, false, false, int64(0), int64(0), "a\xff", "b", uint8(127), uint64(0), uint64(0))
	f.Add(uint8(boolean), false, false, false, int64(0), int64(1), "", "", uint8(63), uint64(0), uint64(0))
	f.Add(uint8(boolean), true, false, true, int64(1), int64(1), "", "", uint8(64), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, kind uint8, desc, aNull, bNull bool, ai, bi int64, as, bs string, off uint8, below, above uint64) {
		var a, b vtypes.Value
		switch kind % 4 {
		case i64:
			a, b = vtypes.I64Value(ai), vtypes.I64Value(bi)
		case f64:
			a, b = vtypes.F64Value(math.Float64frombits(uint64(ai))), vtypes.F64Value(math.Float64frombits(uint64(bi)))
		case str:
			a, b = vtypes.StrValue(as), vtypes.StrValue(bs)
		default:
			a, b = vtypes.BoolValue(ai&1 == 1), vtypes.BoolValue(bi&1 == 1)
		}
		a.Null, b.Null = aNull, bNull
		nullable := aNull || bNull || ai&2 != 0
		// The range holds both codes, widened by below and above.
		lo, hi := min(code(a), code(b)), max(code(a), code(b))
		lo, hi = lo-min(lo, below), hi+min(math.MaxUint64-hi, above)
		at := int(off % 128)
		noise := uint64(ai) ^ uint64(bi)<<1 ^ below
		pa := packKey(t, a, at, lo, hi, nullable, desc, noise)
		pb := packKey(t, b, at, lo, hi, nullable, desc, ^noise)
		ka, kb := pa.key(at), pb.key(at)
		got, want := slices.Compare(ka, kb), a.Compare(b)
		if desc {
			want = -want
		}
		if kind%4 != str || aNull || bNull {
			if got != want {
				t.Fatalf("%v vs %v (desc %v, codes [%x, %x], bit %d): keys %x, %x compare %d, values %d", a, b, desc, lo, hi, at, ka, kb, got, want)
			}
		} else {
			pad := func(s string) string {
				p := make([]byte, SortKeyStrPrefix)
				copy(p, s)
				return string(p)
			}
			if (want != 0 && got == -want) || (got == 0) != (pad(as) == pad(bs)) {
				t.Fatalf("%q vs %q (desc %v): prefix keys %x, %x compare %d, strings %d", as, bs, desc, ka, kb, got, want)
			}
		}
		for _, c := range []struct {
			v vtypes.Value
			p packed
		}{{a, pa}, {b, pb}} {
			e := c.p.entries[c.p.stride:]
			switch {
			case c.v.Null:
			case kind%4 == i64:
				var back [1]int64
				SortKeyReadI64(back[:], e, c.p.stride, c.p.f)
				if back[0] != c.v.I64 {
					t.Fatalf("%v read back as %d", c.v, back[0])
				}
			case kind%4 == f64 && c.v.F64 == c.v.F64 && math.Float64bits(c.v.F64) != signBit:
				var back [1]float64
				SortKeyReadF64(back[:], e, c.p.stride, c.p.f)
				if math.Float64bits(back[0]) != math.Float64bits(c.v.F64) {
					t.Fatalf("%v (bits %x) read back as bits %x", c.v, math.Float64bits(c.v.F64), math.Float64bits(back[0]))
				}
			case kind%4 == boolean:
				var back [1]bool
				SortKeyReadBool(back[:], e, c.p.stride, c.p.f)
				if back[0] != c.v.B {
					t.Fatalf("%v read back as %v", c.v, back[0])
				}
			}
		}
	})
}

// TestSortKeyRange: the range passes find the lowest and highest code,
// and RangeF64 reports a -0 or a NaN anywhere.
func TestSortKeyRange(t *testing.T) {
	lo, hi := RangeI64([]int64{5, -3, 9}, math.MaxUint64, 0)
	lo, hi = RangeI64([]int64{math.MaxInt64}, lo, hi)
	if lo != uint64(-3+math.MaxInt64+1) || hi != math.MaxUint64 {
		t.Fatalf("RangeI64: [%x, %x]", lo, hi)
	}
	for _, c := range []struct {
		src   []float64
		exact bool
	}{
		{[]float64{1, -2, math.Inf(1)}, true},
		{[]float64{1, math.Copysign(0, -1)}, false},
		{[]float64{0, math.NaN()}, false},
	} {
		lo, hi, exact := RangeF64(c.src, math.MaxUint64, 0, true)
		if exact != c.exact {
			t.Errorf("RangeF64(%v): exact %v", c.src, exact)
		}
		for _, v := range c.src {
			if k := f64Code(v); k < lo || k > hi {
				t.Errorf("RangeF64(%v): [%x, %x] misses %v", c.src, lo, hi, v)
			}
		}
	}
}

// TestSortKeyRowID: row ids count up from first in a field of exactly
// the bits the last one needs, read back as written, across a word
// boundary and into the last bit of an entry.
func TestSortKeyRowID(t *testing.T) {
	for _, c := range []struct{ off, rows int }{{0, 1}, {60, 9}, {62, 256}, {64, 257}, {100, 3}} {
		f := NewSortField(c.off, 0, uint64(c.rows-1), false)
		if int(f.Width) != bits.Len(uint(c.rows-1)) {
			t.Fatalf("%d rows: %d bits", c.rows, f.Width)
		}
		stride := max(1, (c.off+int(f.Width)+63)/64)
		e := make([]uint64, c.rows*stride)
		SortKeyRowID(e, stride, f, 0, c.rows)
		ids := make([]int32, c.rows)
		SortKeyReadRowIDs(ids, e, stride, f)
		for k, id := range ids {
			if id != int32(k) {
				t.Fatalf("off %d, %d rows: entry %d holds row id %d", c.off, c.rows, k, id)
			}
		}
		slices.Reverse(ids)
		SortKeyRowIDs(e, stride, f, ids)
		SortKeyReadRowIDs(ids, e, stride, f)
		for k, id := range ids {
			if id != int32(c.rows-1-k) {
				t.Fatalf("off %d, %d rows: rewritten entry %d holds row id %d", c.off, c.rows, k, id)
			}
		}
	}
}

package primitives

import (
	"bytes"
	"math"
	"testing"

	"vectorwise/internal/vtypes"
)

// sortKeyOf encodes one value as a sort key through the kernel of its
// kind, once densely and once as row 2 of a vector under a selection
// vector into the middle of a wider entry, and fails if the two differ.
func sortKeyOf(t *testing.T, v vtypes.Value, nullable, desc bool) []byte {
	t.Helper()
	encode := func(dst []byte, stride, off, at int, sel []int32) int {
		voff, width := off, 8
		if nullable {
			voff++
		}
		switch v.Kind.StorageClass() {
		case vtypes.ClassI64:
			src := make([]int64, at+1)
			src[at] = v.I64
			SortKeyI64(dst, stride, voff, src, sel, 1, desc)
		case vtypes.ClassF64:
			src := make([]float64, at+1)
			src[at] = v.F64
			SortKeyF64(dst, stride, voff, src, sel, 1, desc)
		case vtypes.ClassStr:
			src := make([]string, at+1)
			src[at], width = v.Str, SortKeyStrPrefix
			SortKeyStr(dst, stride, voff, src, sel, 1, desc)
		default:
			src := make([]bool, at+1)
			src[at], width = v.B, 1
			SortKeyBool(dst, stride, voff, src, sel, 1, desc)
		}
		if nullable {
			nulls := make([]bool, at+1)
			nulls[at] = v.Null
			SortKeyNulls(dst, stride, off, width, nulls, sel, 1, desc)
			width++
		}
		return width
	}
	dense := make([]byte, 16)
	dense = dense[:encode(dense, len(dense), 0, 0, nil)]
	wide := bytes.Repeat([]byte{0xAA}, 24)
	encode(wide, len(wide), 5, 2, []int32{2})
	if got := wide[5 : 5+len(dense)]; !bytes.Equal(got, dense) {
		t.Fatalf("%v: selected form wrote % x, dense form % x", v, got, dense)
	}
	if wide[4] != 0xAA || wide[5+len(dense)] != 0xAA {
		t.Fatalf("%v: kernel wrote outside its %d-byte slot: % x", v, len(dense), wide)
	}
	return dense
}

// FuzzSortKeyOrder: bytes.Compare of two encoded keys has the sign of
// Value.Compare, reversed under desc, for every kind, NULLs included. A
// VARCHAR key is a prefix: it never orders two strings the wrong way
// round, and ties exactly when the strings' zero-padded prefixes do.
func FuzzSortKeyOrder(f *testing.F) {
	bits := func(x float64) int64 { return int64(math.Float64bits(x)) }
	const i64, f64, str, boolean = 0, 1, 2, 3
	f.Add(uint8(i64), false, false, false, int64(math.MinInt64), int64(math.MaxInt64), "", "")
	f.Add(uint8(i64), true, false, false, int64(-1), int64(0), "", "")
	f.Add(uint8(i64), false, true, false, int64(0), int64(math.MinInt64), "", "") // NULL vs the lowest value
	f.Add(uint8(f64), false, false, false, bits(math.Copysign(0, -1)), bits(0), "", "")
	f.Add(uint8(f64), true, false, false, bits(math.NaN()), bits(math.Inf(-1)), "", "")
	f.Add(uint8(f64), false, false, false, int64(-1), bits(math.NaN()), "", "")      // two NaN payloads
	f.Add(uint8(f64), false, false, false, int64(1), int64(2), "", "")               // subnormals
	f.Add(uint8(f64), false, false, false, int64(1)|math.MinInt64, int64(1), "", "") // ±smallest subnormal
	f.Add(uint8(f64), true, false, true, bits(math.Inf(1)), int64(0), "", "")        // +Inf vs NULL, descending
	f.Add(uint8(f64), false, false, false, bits(-1.5), bits(-1.25), "", "")          // negatives invert
	f.Add(uint8(str), false, false, false, int64(0), int64(0), "ab", "ab\x00")       // tie on the padded prefix
	f.Add(uint8(str), true, false, false, int64(0), int64(0), "Customer#000000001", "Customer#000000002")
	f.Add(uint8(str), false, false, false, int64(0), int64(0), "exactly12byt", "exactly12byte")
	f.Add(uint8(str), false, true, false, int64(0), int64(0), "", "") // NULL vs the empty string
	f.Add(uint8(str), true, false, false, int64(0), int64(0), "a\xff", "b")
	f.Add(uint8(boolean), false, false, false, int64(0), int64(1), "", "")
	f.Add(uint8(boolean), true, false, true, int64(1), int64(1), "", "")
	f.Fuzz(func(t *testing.T, kind uint8, desc, aNull, bNull bool, ai, bi int64, as, bs string) {
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
		ka, kb := sortKeyOf(t, a, nullable, desc), sortKeyOf(t, b, nullable, desc)
		got, want := bytes.Compare(ka, kb), a.Compare(b)
		if desc {
			want = -want
		}
		if kind%4 != str || aNull || bNull {
			if got != want {
				t.Fatalf("%v vs %v (desc %v): keys % x, % x compare %d, values %d", a, b, desc, ka, kb, got, want)
			}
			return
		}
		pad := func(s string) string {
			p := make([]byte, SortKeyStrPrefix)
			copy(p, s)
			return string(p)
		}
		if (want != 0 && got == -want) || (got == 0) != (pad(as) == pad(bs)) {
			t.Fatalf("%q vs %q (desc %v): prefix keys % x, % x compare %d, strings %d", as, bs, desc, ka, kb, got, want)
		}
	})
}

// TestSortKeyRowID: row ids count up big-endian from first and are the
// last thing an entry is compared on.
func TestSortKeyRowID(t *testing.T) {
	e := make([]byte, 3*6)
	SortKeyRowID(e, 6, 2, 0xFF, 3)
	want := []byte{0, 0, 0, 0, 0, 0xFF, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1}
	if !bytes.Equal(e, want) {
		t.Fatalf("row ids % x, want % x", e, want)
	}
}

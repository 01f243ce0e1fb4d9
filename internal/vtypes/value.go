package vtypes

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"
)

// Value is a boxed scalar used by the row-at-a-time baseline engine, the
// SQL layer (literals) and test infrastructure. The vectorized engine
// never allocates Values in its inner loops; that difference is precisely
// the interpretation overhead the paper quantifies.
type Value struct {
	Kind Kind
	Null bool
	I64  int64   // payload for KindI64 / KindDate
	F64  float64 // payload for KindF64
	Str  string  // payload for KindStr
	B    bool    // payload for KindBool
}

// NullValue returns the NULL of the given kind.
func NullValue(k Kind) Value { return Value{Kind: k, Null: true} }

// I64Value boxes an int64.
func I64Value(v int64) Value { return Value{Kind: KindI64, I64: v} }

// F64Value boxes a float64.
func F64Value(v float64) Value { return Value{Kind: KindF64, F64: v} }

// StrValue boxes a string.
func StrValue(v string) Value { return Value{Kind: KindStr, Str: v} }

// BoolValue boxes a bool.
func BoolValue(v bool) Value { return Value{Kind: KindBool, B: v} }

// DateValue boxes a date expressed in days since 1970-01-01.
func DateValue(days int64) Value { return Value{Kind: KindDate, I64: days} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Null }

// AsFloat coerces a numeric value to float64 (ints widen).
func (v Value) AsFloat() float64 {
	if v.Kind == KindF64 {
		return v.F64
	}
	return float64(v.I64)
}

// AsInt coerces a numeric value to int64 (floats truncate).
func (v Value) AsInt() int64 {
	if v.Kind == KindF64 {
		return int64(v.F64)
	}
	return v.I64
}

// String renders the value for result printing; NULL renders as "NULL".
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case KindI64:
		return strconv.FormatInt(v.I64, 10)
	case KindF64:
		return strconv.FormatFloat(v.F64, 'f', -1, 64)
	case KindStr:
		return v.Str
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	case KindDate:
		return FormatDate(v.I64)
	default:
		return fmt.Sprintf("<invalid kind %d>", v.Kind)
	}
}

// Compare orders two values of the same storage class and returns -1, 0
// or 1. NULLs sort first (SQL NULLS FIRST default of the engine);
// comparing a NULL with anything yields -1/0/1 by null flag. DOUBLEs order
// as cmp.Compare does — a total order, NaN below -Inf and equal to itself,
// -0 equal to +0 — which is what the vectorized engine's sort keys encode.
func (v Value) Compare(o Value) int { return CompareRef(&v, &o) }

// CompareRef is Compare through pointers, for callers that compare many
// values in place and would otherwise copy both operands every time.
func CompareRef(v, o *Value) int {
	if v.Null || o.Null {
		switch {
		case v.Null && o.Null:
			return 0
		case v.Null:
			return -1
		default:
			return 1
		}
	}
	switch v.Kind.StorageClass() {
	case ClassI64:
		return cmp.Compare(v.I64, o.I64)
	case ClassF64:
		return cmp.Compare(v.F64, o.F64)
	case ClassStr:
		return cmp.Compare(v.Str, o.Str)
	case ClassBool:
		switch {
		case !v.B && o.B:
			return -1
		case v.B && !o.B:
			return 1
		}
	}
	return 0
}

// Equal reports value equality; NULL equals NULL only for grouping
// purposes (SQL GROUP BY treats NULLs as one group), which is how the
// engines use this method.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Row is a tuple of boxed values; the unit of work of the tuple engine.
type Row []Value

// Clone copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// hashSeed seeds row hashing; fixed so tests are deterministic within a
// process (maphash seeds differ across processes, which is fine).
var hashSeed = maphash.MakeSeed()

// Hash hashes the row for grouping/joining in the baseline engines.
func (r Row) Hash() uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	var buf [8]byte
	for _, v := range r {
		if v.Null {
			_ = h.WriteByte(0xff)
			continue
		}
		switch v.Kind.StorageClass() {
		case ClassI64:
			putU64(&buf, uint64(v.I64))
			_, _ = h.Write(buf[:])
		case ClassF64:
			putU64(&buf, keyBits(v.F64))
			_, _ = h.Write(buf[:])
		case ClassStr:
			_, _ = h.WriteString(v.Str)
			_ = h.WriteByte(0)
		case ClassBool:
			if v.B {
				_ = h.WriteByte(1)
			} else {
				_ = h.WriteByte(2)
			}
		}
	}
	return h.Sum64()
}

func putU64(buf *[8]byte, v uint64) {
	buf[0] = byte(v)
	buf[1] = byte(v >> 8)
	buf[2] = byte(v >> 16)
	buf[3] = byte(v >> 24)
	buf[4] = byte(v >> 32)
	buf[5] = byte(v >> 40)
	buf[6] = byte(v >> 48)
	buf[7] = byte(v >> 56)
}

// ParseCSVField converts one CSV field to the value a column of col's
// kind stores: the NULL token of a nullable column is NULL, numbers,
// dates and booleans are trimmed, strings are kept verbatim.
func ParseCSVField(field string, col Column, nullTok string) (Value, error) {
	if col.Nullable && field == nullTok {
		return NullValue(col.Kind), nil
	}
	switch col.Kind {
	case KindI64:
		n, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("cannot parse %q as BIGINT", field)
		}
		return I64Value(n), nil
	case KindF64:
		f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return Value{}, fmt.Errorf("cannot parse %q as DOUBLE", field)
		}
		return F64Value(f), nil
	case KindDate:
		d, err := ParseDate(strings.TrimSpace(field))
		if err != nil {
			return Value{}, fmt.Errorf("cannot parse %q as DATE", field)
		}
		return DateValue(d), nil
	case KindBool:
		switch strings.ToLower(strings.TrimSpace(field)) {
		case "true", "t", "1":
			return BoolValue(true), nil
		case "false", "f", "0":
			return BoolValue(false), nil
		}
		return Value{}, fmt.Errorf("cannot parse %q as BOOLEAN", field)
	default:
		return StrValue(field), nil
	}
}

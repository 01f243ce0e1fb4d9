// Package vtypes defines the value type system shared by every layer of
// the Vectorwise reproduction: the storage format, the vectorized engine,
// and the row-at-a-time / column-at-a-time baseline engines.
//
// The engine supports five logical kinds. Dates are a distinct logical
// kind (so the SQL layer can type-check date arithmetic) but share the
// int64 storage class, counting days since the Unix epoch; this lets all
// integer kernels operate on dates unchanged, exactly as X100 maps dates
// onto its integer primitives.
package vtypes

import "fmt"

// Kind identifies a logical column type.
type Kind uint8

// The logical kinds supported by the engine.
const (
	// KindInvalid is the zero Kind; it is never valid in a schema.
	KindInvalid Kind = iota
	// KindI64 is a 64-bit signed integer.
	KindI64
	// KindF64 is a 64-bit IEEE-754 float. TPC-H decimals map onto it
	// (documented substitution: Go has no fast fixed-point decimal and
	// the paper's claims do not depend on decimal rounding).
	KindF64
	// KindStr is a variable-length UTF-8 string.
	KindStr
	// KindBool is a boolean.
	KindBool
	// KindDate is a calendar date stored as days since 1970-01-01.
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindI64:
		return "BIGINT"
	case KindF64:
		return "DOUBLE"
	case KindStr:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("INVALID(%d)", uint8(k))
	}
}

// Class is the physical storage class backing a logical kind.
type Class uint8

// Storage classes. Every kernel is written once per class.
const (
	ClassInvalid Class = iota
	ClassI64           // int64 slice (KindI64, KindDate)
	ClassF64           // float64 slice
	ClassStr           // string slice
	ClassBool          // bool slice
)

// StorageClass maps a logical kind to its physical storage class.
func (k Kind) StorageClass() Class {
	switch k {
	case KindI64, KindDate:
		return ClassI64
	case KindF64:
		return ClassF64
	case KindStr:
		return ClassStr
	case KindBool:
		return ClassBool
	default:
		return ClassInvalid
	}
}

// Numeric reports whether the kind participates in arithmetic.
func (k Kind) Numeric() bool { return k == KindI64 || k == KindF64 }

// Column describes one column of a schema.
type Column struct {
	// Name is the column name, lower-cased by the SQL layer.
	Name string
	// Kind is the logical type.
	Kind Kind
	// Nullable records whether NULLs may appear. Per the paper, NULLs
	// are stored as a separate indicator column plus a "safe" value;
	// the rewriter decomposes NULLable expressions so kernels never
	// see NULLs.
	Nullable bool
}

// NotNullError is a NULL written into a column not declared NULL:
// SQLSTATE 23502, not_null_violation. Every write refuses one: INSERT and
// UPDATE (txn.Txn), and bulk loads (storage.Builder).
type NotNullError struct {
	Table, Column string
}

func (e *NotNullError) Error() string {
	return fmt.Sprintf("null value in column %q of table %q violates not-null constraint", e.Column, e.Table)
}

// RowIDColumn is the trailing output column of a scan asked for row ids
// (algebra.ScanNode.RowID): each row's position in the scanned image.
// `$` never lexes as an identifier, so SQL cannot name it.
var RowIDColumn = Column{Name: "$rid", Kind: KindI64}

// Schema is an ordered set of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Col returns the column at index i.
func (s *Schema) Col(i int) Column { return s.Cols[i] }

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Cols))
	copy(cols, s.Cols)
	return &Schema{Cols: cols}
}

// Project returns a new schema with only the given column indexes.
func (s *Schema) Project(idxs []int) *Schema {
	cols := make([]Column, len(idxs))
	for i, ix := range idxs {
		cols[i] = s.Cols[ix]
	}
	return &Schema{Cols: cols}
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	out := "("
	for i, c := range s.Cols {
		if i > 0 {
			out += ", "
		}
		out += c.Name + " " + c.Kind.String()
		if c.Nullable {
			out += " NULL"
		}
	}
	return out + ")"
}

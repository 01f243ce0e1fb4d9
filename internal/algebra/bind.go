package algebra

import (
	"fmt"
	"math"

	"vectorwise/internal/vtypes"
)

// BindParams returns a copy of a plan template with every Param scalar
// replaced by a literal from args (args[0] binds $1). The input plan is
// never mutated, so a cached template can be bound by any number of
// concurrent executions. Values are assigned to the parameter's resolved
// kind by CoerceValue (ints widen to float, strings parse as dates), but
// exactly: a DOUBLE argument bound to a BIGINT or DATE slot must be a
// whole number in range, or the bind fails with a *ParamError, as does
// any argument the slot cannot take.
func BindParams(n Node, args []vtypes.Value) (Node, error) {
	return MapNode(n, bindLeaf(args), nil)
}

// BindScalars is BindParams for a list of expressions under no plan node
// (one VALUES row of a cached INSERT). A list without parameter slots
// comes back as it is.
func BindScalars(ss []Scalar, args []vtypes.Value) ([]Scalar, error) {
	m := mapper{scalar: bindLeaf(args)}
	out := mapEach(ss, m.sc)
	return out, m.err
}

// ParamError is an argument that its parameter slot $Idx cannot take:
// the client's fault, which a server answers 400.
type ParamError struct {
	Idx int
	Err error
}

func (e *ParamError) Error() string { return fmt.Sprintf("algebra: parameter $%d: %v", e.Idx, e.Err) }
func (e *ParamError) Unwrap() error { return e.Err }

// bindLeaf is the MapScalar callback that replaces a Param leaf by its
// argument, assigned exactly to the slot's kind.
func bindLeaf(args []vtypes.Value) func(Scalar) (Scalar, error) {
	return func(leaf Scalar) (Scalar, error) {
		t, ok := leaf.(*Param)
		if !ok {
			return leaf, nil
		}
		if t.Idx < 1 || t.Idx > len(args) {
			return nil, &ParamError{Idx: t.Idx, Err: fmt.Errorf("not bound (%d args)", len(args))}
		}
		a := args[t.Idx-1]
		if !a.Null && a.Kind.StorageClass() == vtypes.ClassF64 && t.K.StorageClass() == vtypes.ClassI64 && !whole(a.F64) {
			return nil, &ParamError{Idx: t.Idx, Err: fmt.Errorf("%v is not a whole %v", a, t.K)}
		}
		v, err := CoerceValue(a, t.K)
		if err != nil {
			return nil, &ParamError{Idx: t.Idx, Err: err}
		}
		return &Lit{Val: v}, nil
	}
}

// whole reports whether f is an integer an int64 holds: not NaN, not
// infinite, no fraction, in range.
func whole(f float64) bool {
	return f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64
}

// Coercible reports whether CoerceValue can convert non-NULL values of
// kind from to kind want: within one storage class, between the numeric
// classes, and from strings to dates (each string must still parse).
func Coercible(from, want vtypes.Kind) bool {
	fc, wc := from.StorageClass(), want.StorageClass()
	return want == vtypes.KindInvalid || fc == wc ||
		(fc == vtypes.ClassI64 && wc == vtypes.ClassF64) ||
		(fc == vtypes.ClassF64 && wc == vtypes.ClassI64) ||
		(from == vtypes.KindStr && want == vtypes.KindDate)
}

// CoerceValue converts a value assigned to a slot of kind want: an
// INSERT cell, an UPDATE SET value, a bound argument, a routed key. It
// is for assignment only: same storage class re-tags, ints widen to
// float, floats truncate to int, strings parse as dates, and NULL adopts
// the slot kind. Where operands meet in an expression, the planner
// widens and never truncates (sql's unify).
func CoerceValue(v vtypes.Value, want vtypes.Kind) (vtypes.Value, error) {
	if want == vtypes.KindInvalid {
		return v, nil
	}
	if v.Null {
		return vtypes.NullValue(want), nil
	}
	if !Coercible(v.Kind, want) {
		return vtypes.Value{}, fmt.Errorf("value %v incompatible with %v", v, want)
	}
	switch vc, wc := v.Kind.StorageClass(), want.StorageClass(); {
	case vc == wc:
		v.Kind = want
		return v, nil
	case wc == vtypes.ClassF64:
		return vtypes.F64Value(float64(v.I64)), nil
	case vc == vtypes.ClassF64:
		return vtypes.Value{Kind: want, I64: int64(v.F64)}, nil
	}
	d, err := vtypes.ParseDate(v.Str)
	if err != nil {
		return vtypes.Value{}, err
	}
	return vtypes.DateValue(d), nil
}

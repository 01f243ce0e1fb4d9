package algebra

import (
	"fmt"

	"vectorwise/internal/vtypes"
)

// BindParams returns a copy of a plan template with every Param scalar
// replaced by a literal from args (args[0] binds $1). The input plan is
// never mutated, so a cached template can be bound by any number of
// concurrent executions. Values are assigned to the parameter's resolved
// kind by CoerceValue (ints widen to float, floats truncate to int,
// strings parse as dates).
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

// bindLeaf is the MapScalar callback that replaces a Param leaf by its
// coerced argument.
func bindLeaf(args []vtypes.Value) func(Scalar) (Scalar, error) {
	return func(leaf Scalar) (Scalar, error) {
		t, ok := leaf.(*Param)
		if !ok {
			return leaf, nil
		}
		if t.Idx < 1 || t.Idx > len(args) {
			return nil, fmt.Errorf("algebra: parameter $%d not bound (%d args)", t.Idx, len(args))
		}
		v, err := CoerceValue(args[t.Idx-1], t.K)
		if err != nil {
			return nil, fmt.Errorf("algebra: parameter $%d: %w", t.Idx, err)
		}
		return &Lit{Val: v}, nil
	}
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

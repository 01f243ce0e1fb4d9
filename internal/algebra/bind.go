package algebra

import (
	"fmt"

	"vectorwise/internal/vtypes"
)

// BindParams returns a copy of a plan template with every Param scalar
// replaced by a literal from args (args[0] binds $1). The input plan is
// never mutated, so a cached template can be bound by any number of
// concurrent executions. Values are coerced to the parameter's resolved
// kind with the same rules the planner applies to literals (ints widen
// to float, floats truncate to int, strings parse as dates).
func BindParams(n Node, args []vtypes.Value) (Node, error) {
	return bindNode(n, args)
}

func bindNode(n Node, args []vtypes.Value) (Node, error) {
	switch t := n.(type) {
	case *ScanNode:
		// A scan without filters carries no scalars; it is immutable
		// during execution and safe to share between the template and
		// its bindings. Pushed filters may hold Param slots, so a
		// filtered scan clone-binds like any predicate.
		if len(t.Filters) == 0 {
			return t, nil
		}
		filters, err := bindScalars(t.Filters, args)
		if err != nil {
			return nil, err
		}
		clone := *t
		clone.Filters = filters
		return &clone, nil
	case *SelectNode:
		in, err := bindNode(t.Input, args)
		if err != nil {
			return nil, err
		}
		pred, err := bindScalar(t.Pred, args)
		if err != nil {
			return nil, err
		}
		return &SelectNode{Input: in, Pred: pred}, nil
	case *ProjectNode:
		in, err := bindNode(t.Input, args)
		if err != nil {
			return nil, err
		}
		exprs, err := bindScalars(t.Exprs, args)
		if err != nil {
			return nil, err
		}
		return &ProjectNode{Input: in, Exprs: exprs, Names: t.Names}, nil
	case *AggNode:
		in, err := bindNode(t.Input, args)
		if err != nil {
			return nil, err
		}
		groups, err := bindScalars(t.GroupBy, args)
		if err != nil {
			return nil, err
		}
		aggs := make([]AggExpr, len(t.Aggs))
		for i, a := range t.Aggs {
			aggs[i] = a
			if a.Arg != nil {
				arg, err := bindScalar(a.Arg, args)
				if err != nil {
					return nil, err
				}
				aggs[i].Arg = arg
			}
		}
		out := *t
		out.Input, out.GroupBy, out.Aggs = in, groups, aggs
		return &out, nil
	case *JoinNode:
		left, err := bindNode(t.Left, args)
		if err != nil {
			return nil, err
		}
		right, err := bindNode(t.Right, args)
		if err != nil {
			return nil, err
		}
		lk, err := bindScalars(t.LeftKeys, args)
		if err != nil {
			return nil, err
		}
		rk, err := bindScalars(t.RightKeys, args)
		if err != nil {
			return nil, err
		}
		out := *t
		out.Left, out.Right, out.LeftKeys, out.RightKeys = left, right, lk, rk
		return &out, nil
	case *SortNode:
		in, err := bindNode(t.Input, args)
		if err != nil {
			return nil, err
		}
		keys := make([]SortKey, len(t.Keys))
		for i, k := range t.Keys {
			e, err := bindScalar(k.Expr, args)
			if err != nil {
				return nil, err
			}
			keys[i] = SortKey{Expr: e, Desc: k.Desc}
		}
		return &SortNode{Input: in, Keys: keys}, nil
	case *LimitNode:
		in, err := bindNode(t.Input, args)
		if err != nil {
			return nil, err
		}
		return &LimitNode{Input: in, N: t.N}, nil
	case *UnionAllNode:
		inputs := make([]Node, len(t.Inputs))
		for i, c := range t.Inputs {
			in, err := bindNode(c, args)
			if err != nil {
				return nil, err
			}
			inputs[i] = in
		}
		return &UnionAllNode{Inputs: inputs}, nil
	default:
		return nil, fmt.Errorf("algebra: cannot bind parameters in %T", n)
	}
}

func bindScalars(ss []Scalar, args []vtypes.Value) ([]Scalar, error) {
	out := make([]Scalar, len(ss))
	for i, s := range ss {
		e, err := bindScalar(s, args)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func bindScalar(s Scalar, args []vtypes.Value) (Scalar, error) {
	return MapScalar(s, func(leaf Scalar) (Scalar, error) {
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
	})
}

// MapScalar rebuilds a scalar tree bottom-up: every node — leaves first,
// then each interior node over its rebuilt children — is replaced by f's
// result; nodes are copied, never mutated. It is the one traversal behind
// parameter binding, column renumbering and the rewriter's simplification.
func MapScalar(s Scalar, f func(Scalar) (Scalar, error)) (Scalar, error) {
	rec := func(in Scalar) (Scalar, error) { return MapScalar(in, f) }
	list := func(ss []Scalar) ([]Scalar, error) {
		out := make([]Scalar, len(ss))
		for i, in := range ss {
			e, err := rec(in)
			if err != nil {
				return nil, err
			}
			out[i] = e
		}
		return out, nil
	}
	switch t := s.(type) {
	case *ColRef, *Lit, *Param:
		return f(s)
	case *Arith:
		l, err := rec(t.L)
		if err != nil {
			return nil, err
		}
		r, err := rec(t.R)
		if err != nil {
			return nil, err
		}
		return f(&Arith{Op: t.Op, L: l, R: r, K: t.K})
	case *Cmp:
		l, err := rec(t.L)
		if err != nil {
			return nil, err
		}
		r, err := rec(t.R)
		if err != nil {
			return nil, err
		}
		return f(&Cmp{Op: t.Op, L: l, R: r})
	case *Between:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return f(&Between{In: in, Lo: t.Lo, Hi: t.Hi})
	case *Like:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return f(&Like{In: in, Pattern: t.Pattern, Negate: t.Negate})
	case *In:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return f(&In{In: in, List: t.List})
	case *And:
		preds, err := list(t.Preds)
		if err != nil {
			return nil, err
		}
		return f(&And{Preds: preds})
	case *Or:
		preds, err := list(t.Preds)
		if err != nil {
			return nil, err
		}
		return f(&Or{Preds: preds})
	case *Not:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return f(&Not{In: in})
	case *Case:
		cond, err := rec(t.Cond)
		if err != nil {
			return nil, err
		}
		then, err := rec(t.Then)
		if err != nil {
			return nil, err
		}
		el, err := rec(t.Else)
		if err != nil {
			return nil, err
		}
		return f(&Case{Cond: cond, Then: then, Else: el, K: t.K})
	case *YearOf:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return f(&YearOf{In: in})
	case *IsNull:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return f(&IsNull{In: in, Negate: t.Negate})
	case *Cast:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return f(&Cast{In: in, To: t.To})
	default:
		return nil, fmt.Errorf("algebra: cannot rewrite scalar %T", s)
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

// CoerceValue converts a bound argument to the kind a parameter slot
// resolved to: same storage class re-tags, ints widen to float, floats
// truncate to int, strings parse as dates. NULL adopts the slot kind.
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

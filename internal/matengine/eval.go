package matengine

import (
	"fmt"

	"vectorwise/internal/algebra"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// evalCol evaluates a scalar over the whole relation, materializing the
// result as a full column (and charging it to the intermediate counter):
// MonetDB's operator-at-a-time expression evaluation.
func evalCol(s algebra.Scalar, in *Rel) (*vector.Vector, error) {
	n := in.N
	switch t := s.(type) {
	case *algebra.ColRef:
		return in.Cols[t.Idx], nil // base column: not an intermediate
	case *algebra.Lit:
		out := vector.New(t.Val.Kind, n)
		for i := 0; i < n; i++ {
			out.Set(i, t.Val)
		}
		chargeCol(out, n)
		return out, nil
	case *algebra.Arith:
		l, err := evalCol(t.L, in)
		if err != nil {
			return nil, err
		}
		r, err := evalCol(t.R, in)
		if err != nil {
			return nil, err
		}
		out := vector.New(t.K, n)
		if n > 0 {
			switch t.K.StorageClass() {
			case vtypes.ClassF64:
				switch t.Op {
				case algebra.OpAdd:
					primitives.MapAddVV(out.F64, l.F64, r.F64, nil, n)
				case algebra.OpSub:
					primitives.MapSubVV(out.F64, l.F64, r.F64, nil, n)
				case algebra.OpMul:
					primitives.MapMulVV(out.F64, l.F64, r.F64, nil, n)
				default:
					primitives.MapDivVV(out.F64, l.F64, r.F64, nil, n)
				}
			default:
				switch t.Op {
				case algebra.OpAdd:
					primitives.MapAddVV(out.I64, l.I64, r.I64, nil, n)
				case algebra.OpSub:
					primitives.MapSubVV(out.I64, l.I64, r.I64, nil, n)
				case algebra.OpMul:
					primitives.MapMulVV(out.I64, l.I64, r.I64, nil, n)
				default:
					primitives.MapDivVV(out.I64, l.I64, r.I64, nil, n)
				}
			}
		}
		chargeCol(out, n)
		return out, nil
	case *algebra.Cast:
		v, err := evalCol(t.In, in)
		if err != nil {
			return nil, err
		}
		if v.Kind.StorageClass() == t.To.StorageClass() {
			out := *v
			out.Kind = t.To
			return &out, nil
		}
		out := vector.New(t.To, n)
		if n > 0 {
			if t.To.StorageClass() == vtypes.ClassF64 {
				primitives.MapI64ToF64(out.F64, v.I64, nil, n)
			} else {
				primitives.MapF64ToI64(out.I64, v.F64, nil, n)
			}
		}
		out.Nulls = v.Nulls
		chargeCol(out, n)
		return out, nil
	case *algebra.YearOf:
		v, err := evalCol(t.In, in)
		if err != nil {
			return nil, err
		}
		out := vector.New(vtypes.KindI64, n)
		for i := 0; i < n; i++ {
			out.I64[i] = vtypes.Year(v.I64[i])
		}
		chargeCol(out, n)
		return out, nil
	case *algebra.Case:
		cond, err := evalBool(t.Cond, in)
		if err != nil {
			return nil, err
		}
		then, err := evalCol(t.Then, in)
		if err != nil {
			return nil, err
		}
		el, err := evalCol(t.Else, in)
		if err != nil {
			return nil, err
		}
		out := vector.New(t.K, n)
		switch t.K.StorageClass() {
		case vtypes.ClassF64:
			for i := 0; i < n; i++ {
				if cond[i] {
					out.F64[i] = then.F64[i]
				} else {
					out.F64[i] = el.F64[i]
				}
			}
		case vtypes.ClassI64:
			for i := 0; i < n; i++ {
				if cond[i] {
					out.I64[i] = then.I64[i]
				} else {
					out.I64[i] = el.I64[i]
				}
			}
		default:
			for i := 0; i < n; i++ {
				if cond[i] {
					out.CopyFrom(then, i, i, 1)
				} else {
					out.CopyFrom(el, i, i, 1)
				}
			}
		}
		chargeCol(out, n)
		return out, nil
	default:
		// Boolean scalars as value columns.
		if s.Kind() == vtypes.KindBool {
			mask, err := evalBool(s, in)
			if err != nil {
				return nil, err
			}
			out := vector.New(vtypes.KindBool, n)
			copy(out.B, mask)
			chargeCol(out, n)
			return out, nil
		}
		return nil, fmt.Errorf("matengine: unsupported scalar %T", s)
	}
}

// evalBool evaluates a boolean scalar to a whole-column mask.
func evalBool(s algebra.Scalar, in *Rel) ([]bool, error) {
	n := in.N
	out := make([]bool, n)
	switch t := s.(type) {
	case *algebra.ColRef:
		v := in.Cols[t.Idx] // a BOOLEAN column; NULL is not true
		for i := range out {
			out[i] = v.B[i] && (v.Nulls == nil || !v.Nulls[i])
		}
		chargeMask(n)
		return out, nil
	case *algebra.Lit: // TRUE selects every row, FALSE and NULL none
		for i := range out {
			out[i] = t.Val.B && !t.Val.Null
		}
		return out, nil
	case *algebra.Cmp:
		if isNullLit(t.L) || isNullLit(t.R) {
			return out, nil // a comparison with a NULL literal is never true
		}
		l, err := evalCol(t.L, in)
		if err != nil {
			return nil, err
		}
		r, err := evalCol(t.R, in)
		if err != nil {
			return nil, err
		}
		if l.Kind.StorageClass() != r.Kind.StorageClass() {
			return nil, fmt.Errorf("matengine: compare %v vs %v", l.Kind, r.Kind)
		}
		if n == 0 {
			return out, nil
		}
		switch l.Kind.StorageClass() {
		case vtypes.ClassI64:
			mapCmp(out, l.I64, r.I64, t.Op, n)
		case vtypes.ClassF64:
			mapCmp(out, l.F64, r.F64, t.Op, n)
		case vtypes.ClassStr:
			mapCmp(out, l.Str, r.Str, t.Op, n)
		case vtypes.ClassBool:
			if t.Op == algebra.CmpEq {
				primitives.MapEqVV(out, l.B, r.B, nil, n)
			} else {
				primitives.MapNeVV(out, l.B, r.B, nil, n)
			}
		}
		chargeMask(n)
		return out, nil
	case *algebra.Like:
		v, err := evalCol(t.In, in)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			primitives.MapLike(out, v.Str, t.Pattern, nil, n)
			if t.Negate {
				primitives.MapNot(out, out, nil, n)
			}
		}
		chargeMask(n)
		return out, nil
	case *algebra.In:
		v, err := evalCol(t.In, in)
		if err != nil {
			return nil, err
		}
		// NULL members match nothing: leave them out of the probed set.
		switch v.Kind.StorageClass() {
		case vtypes.ClassStr:
			var set []string
			for _, c := range t.List {
				if !c.Null {
					set = append(set, c.Str)
				}
			}
			primitives.MapInSet(out, v.Str, set, nil, n)
		case vtypes.ClassI64:
			var set []int64
			for _, c := range t.List {
				if !c.Null {
					set = append(set, c.I64)
				}
			}
			primitives.MapInSet(out, v.I64, set, nil, n)
		case vtypes.ClassF64:
			var set []float64
			for _, c := range t.List {
				if !c.Null {
					set = append(set, c.F64)
				}
			}
			primitives.MapInSet(out, v.F64, set, nil, n)
		default:
			return nil, fmt.Errorf("matengine: IN over %v", v.Kind)
		}
		chargeMask(n)
		return out, nil
	case *algebra.And:
		for pi, p := range t.Preds {
			m, err := evalBool(p, in)
			if err != nil {
				return nil, err
			}
			if pi == 0 {
				copy(out, m)
			} else if n > 0 {
				primitives.MapAnd(out, out, m, nil, n)
			}
		}
		chargeMask(n)
		return out, nil
	case *algebra.Or:
		for pi, p := range t.Preds {
			m, err := evalBool(p, in)
			if err != nil {
				return nil, err
			}
			if pi == 0 {
				copy(out, m)
			} else if n > 0 {
				primitives.MapOr(out, out, m, nil, n)
			}
		}
		chargeMask(n)
		return out, nil
	case *algebra.IsNull:
		col, ok := t.In.(*algebra.ColRef)
		if !ok {
			return nil, fmt.Errorf("matengine: IS NULL on columns only")
		}
		v := in.Cols[col.Idx]
		for i := 0; i < n; i++ {
			isn := v.Nulls != nil && v.Nulls[i]
			out[i] = isn != t.Negate
		}
		chargeMask(n)
		return out, nil
	default:
		return nil, fmt.Errorf("matengine: unsupported boolean scalar %T", s)
	}
}

func isNullLit(s algebra.Scalar) bool {
	l, ok := s.(*algebra.Lit)
	return ok && l.Val.Null
}

func mapCmp[T primitives.Ordered](dst []bool, a, b []T, op algebra.CmpOp, n int) {
	switch op {
	case algebra.CmpEq:
		primitives.MapEqVV(dst, a, b, nil, n)
	case algebra.CmpNe:
		primitives.MapNeVV(dst, a, b, nil, n)
	case algebra.CmpLt:
		primitives.MapLtVV(dst, a, b, nil, n)
	case algebra.CmpLe:
		primitives.MapLeVV(dst, a, b, nil, n)
	case algebra.CmpGt:
		primitives.MapLtVV(dst, b, a, nil, n)
	default:
		primitives.MapLeVV(dst, b, a, nil, n)
	}
}

func chargeCol(v *vector.Vector, n int) {
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64, vtypes.ClassF64:
		matBytes.Add(int64(n) * 8)
	case vtypes.ClassStr:
		matBytes.Add(int64(n) * 16)
	case vtypes.ClassBool:
		matBytes.Add(int64(n))
	}
}

func chargeMask(n int) { matBytes.Add(int64(n)) }

package xcompile

import (
	"vectorwise/internal/algebra"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// Row-group prune synthesis: a ScanNode's pushed filters are turned
// into a storage.PruneFn that tests each group's chunk min/max before
// anything is decompressed — the paper's "small materialized
// aggregates" put to work by the planner instead of the caller. The
// synthesis runs at compile time, which on the plan-cache path is
// after BindParams has substituted the execution's argument values, so
// a cached parametrized plan prunes with its own bound bounds.
//
// Every conjunct is a sufficient condition: if any one proves the
// group empty, the group skips. Conjunct shapes the statistics cannot
// refute (and NULL-comparison conjuncts, which are never true) are
// handled conservatively; rows inside surviving groups are still
// filtered by the compiled predicate, so pruning is purely an
// I/O/decompression saving, never a semantic change.

// groupCheck reports whether a row group provably has no matching rows.
type groupCheck func(grp *storage.GroupMeta) bool

// synthesizePrune derives a PruneFn from a scan's filters, or nil when
// no conjunct is refutable by statistics. cols maps filter column
// references (scan-output positions) to table column indexes.
func synthesizePrune(cols []int, filters []algebra.Scalar) storage.PruneFn {
	var checks []groupCheck
	for _, f := range filters {
		if c := synthesizeCheck(cols, f); c != nil {
			checks = append(checks, c)
		}
	}
	if len(checks) == 0 {
		return nil
	}
	return func(_ int, grp *storage.GroupMeta) bool {
		for _, c := range checks {
			if c(grp) {
				return true
			}
		}
		return false
	}
}

// litBounds compares a literal against the min/max statistics of table
// column tc: it returns sign(lit-min), sign(lit-max) and whether the
// comparison is usable (stats present, storage classes agree — a numeric
// column against a literal of the other class, which the predicate
// compares as DOUBLE, is filtered but never pruned on).
func litBounds(k vtypes.Kind, tc int, lit vtypes.Value) func(grp *storage.GroupMeta) (vsMin, vsMax int, ok bool) {
	class := k.StorageClass()
	if lit.Kind.StorageClass() != class {
		return nil
	}
	switch class {
	case vtypes.ClassI64:
		v := lit.I64
		return func(grp *storage.GroupMeta) (int, int, bool) {
			cm := &grp.Cols[tc]
			if !cm.HasStats {
				return 0, 0, false
			}
			return cmpI64(v, cm.MinI64), cmpI64(v, cm.MaxI64), true
		}
	case vtypes.ClassF64:
		v := lit.F64
		return func(grp *storage.GroupMeta) (int, int, bool) {
			cm := &grp.Cols[tc]
			if !cm.HasStats {
				return 0, 0, false
			}
			return cmpF64(v, cm.MinF64), cmpF64(v, cm.MaxF64), true
		}
	case vtypes.ClassStr:
		v := lit.Str
		return func(grp *storage.GroupMeta) (int, int, bool) {
			cm := &grp.Cols[tc]
			if !cm.HasStats {
				return 0, 0, false
			}
			return cmpStr(v, cm.MinStr), cmpStr(v, cm.MaxStr), true
		}
	default:
		return nil
	}
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// pruneAlways marks conjuncts that no row can satisfy (comparisons
// against NULL): every group prunes.
func pruneAlways(*storage.GroupMeta) bool { return true }

// synthesizeCheck builds the group-emptiness test of one conjunct, or
// nil when the conjunct is not refutable by min/max statistics.
func synthesizeCheck(cols []int, f algebra.Scalar) groupCheck {
	colAt := func(s algebra.Scalar) (int, vtypes.Kind, bool) {
		col, ok := s.(*algebra.ColRef)
		if !ok || col.Idx < 0 || col.Idx >= len(cols) {
			return 0, 0, false
		}
		return cols[col.Idx], col.K, true
	}
	litOf := func(s algebra.Scalar) (vtypes.Value, bool) {
		l, ok := s.(*algebra.Lit)
		if !ok {
			return vtypes.Value{}, false
		}
		return l.Val, true
	}
	switch t := f.(type) {
	case *algebra.Cmp:
		op := t.Op
		colSide, litSide := t.L, t.R
		if _, ok := litSide.(*algebra.Lit); !ok {
			colSide, litSide = t.R, t.L
			op = flipCmp(op)
		}
		tc, k, ok := colAt(colSide)
		if !ok {
			return nil
		}
		lit, ok := litOf(litSide)
		if !ok {
			return nil
		}
		if lit.Null {
			return pruneAlways
		}
		b := litBounds(k, tc, lit)
		if b == nil {
			return nil
		}
		return func(grp *storage.GroupMeta) bool {
			vsMin, vsMax, ok := b(grp)
			if !ok {
				return false
			}
			switch op {
			case algebra.CmpEq:
				return vsMin < 0 || vsMax > 0
			case algebra.CmpNe:
				return vsMin == 0 && vsMax == 0 // min == lit == max
			case algebra.CmpLt:
				return vsMin <= 0 // min >= lit
			case algebra.CmpLe:
				return vsMin < 0 // min > lit
			case algebra.CmpGt:
				return vsMax >= 0 // max <= lit
			default: // CmpGe
				return vsMax > 0 // max < lit
			}
		}
	case *algebra.Between:
		tc, k, ok := colAt(t.In)
		if !ok {
			return nil
		}
		if t.Lo.Null || t.Hi.Null {
			return pruneAlways
		}
		loB, hiB := litBounds(k, tc, t.Lo), litBounds(k, tc, t.Hi)
		if loB == nil || hiB == nil {
			return nil
		}
		return func(grp *storage.GroupMeta) bool {
			_, loVsMax, ok := loB(grp)
			if !ok {
				return false
			}
			hiVsMin, _, _ := hiB(grp)
			return loVsMax > 0 || hiVsMin < 0 // lo > max or hi < min
		}
	case *algebra.In:
		tc, k, ok := colAt(t.In)
		if !ok {
			return nil
		}
		bs := make([]func(grp *storage.GroupMeta) (int, int, bool), 0, len(t.List))
		for _, v := range t.List {
			if v.Null {
				continue // NULL member matches nothing
			}
			b := litBounds(k, tc, v)
			if b == nil {
				return nil
			}
			bs = append(bs, b)
		}
		if len(bs) == 0 {
			return pruneAlways
		}
		return func(grp *storage.GroupMeta) bool {
			for _, b := range bs {
				vsMin, vsMax, ok := b(grp)
				if !ok {
					return false
				}
				if vsMin >= 0 && vsMax <= 0 { // member inside [min,max]
					return false
				}
			}
			return true
		}
	default:
		return nil
	}
}

// flipCmp mirrors an operator across swapped operands (lit OP col →
// col flip(OP) lit).
func flipCmp(op algebra.CmpOp) algebra.CmpOp {
	switch op {
	case algebra.CmpLt:
		return algebra.CmpGt
	case algebra.CmpLe:
		return algebra.CmpGe
	case algebra.CmpGt:
		return algebra.CmpLt
	case algebra.CmpGe:
		return algebra.CmpLe
	default:
		return op
	}
}

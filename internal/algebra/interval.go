package algebra

import (
	"math"
	"slices"

	"vectorwise/internal/vtypes"
)

// Interval is what one `col <op> const` conjunct, or several intersected,
// says about one column. ReadInterval is the only reading of such a
// conjunct, and a scan's Skip reads the conjuncts of its filter that it
// accepts.
// ReadConjunction is the only reading of a conjunction, one intersected
// Interval a column: row-group pruning and search test it against a
// group's min/max and order, the compiler fuses a column's bounds into
// one between pass, and the planner estimates one overlap a column. A
// BETWEEN is no shape of its own: the planner writes it as its two
// bounds.
//
// The NULL assumption, stated once: chunk statistics cover every stored
// value, including the safe value (zero, "") under a NULL, and a
// constraint is never true on a NULL row. So when no value in [min, max]
// satisfies an interval, no row of the group does: a min/max refutation
// is sound whatever the group's NULLs hold.
type Interval struct {
	Col *ColRef
	// Lo and Hi bound the column's value; an unset end is unbounded.
	Lo, Hi Bound
	// In, when non-nil, lists the values the column may take; NULL
	// members match nothing. A list without a non-NULL member is never
	// true: an IN of only NULLs, or a comparison with a NULL literal.
	In []vtypes.Value
	// Ne lists values the column may not take (`<>`).
	Ne []vtypes.Value
	// Unknown marks a constraint whose value is not known here: a Param
	// before binding, a NaN literal, or a literal of another storage
	// class (no planned plan holds one: the planner settles where types
	// meet). It is filtered like the rest, but it never refutes and
	// never fuses.
	Unknown bool
}

// Bound is one end of an Interval.
type Bound struct {
	Val  vtypes.Value
	Set  bool // false: the end is unbounded
	Open bool // the end value itself is excluded
}

// ReadInterval reads a conjunct as a constraint on one column: `col op
// lit|param` in either orientation or a literal IN, over a column whose
// chunks carry statistics. ok is false for every other shape.
func ReadInterval(s Scalar) (iv Interval, ok bool) {
	switch t := s.(type) {
	case *Cmp:
		op, l, r := t.Op, t.L, t.R
		if _, isCol := l.(*ColRef); !isCol {
			op, l, r = op.Flip(), r, l
		}
		if iv.Col, ok = statCol(l); !ok {
			return iv, false
		}
		switch c := r.(type) {
		case *Param:
			return Interval{Col: iv.Col, Unknown: true}, true
		case *Lit:
			iv.compare(op, &c.Val)
			return iv, true
		}
	case *In:
		if iv.Col, ok = statCol(t.In); !ok {
			return iv, false
		}
		iv.In = t.List
		for i := range t.List {
			iv.Unknown = iv.Unknown || !t.List[i].Null && !sameClass(iv.Col, &t.List[i])
		}
		return iv, true
	}
	return iv, false
}

// ColInterval is one column's Interval within a conjunction: the
// intersection of the conjuncts at positions Conj, in order.
type ColInterval struct {
	Interval
	Conj []int
}

// ReadConjunction reads each conjunct of conj with ReadInterval and
// intersects those on one column: one ColInterval a column, in the order
// of its first conjunct. Conjuncts it does not read, or reads as Unknown,
// belong to none, so every interval it returns is known.
func ReadConjunction(conj []Scalar) []ColInterval {
	var out []ColInterval
next:
	for i, s := range conj {
		iv, ok := ReadInterval(s)
		if !ok || iv.Unknown {
			continue
		}
		for j := range out {
			if c := &out[j]; c.Col.Idx == iv.Col.Idx {
				c.intersect(&iv)
				c.Conj = append(c.Conj, i)
				continue next
			}
		}
		out = append(out, ColInterval{Interval: iv, Conj: []int{i}})
	}
	return out
}

// statCol returns s as a column whose chunks carry statistics (booleans
// carry none).
func statCol(s Scalar) (*ColRef, bool) {
	col, ok := s.(*ColRef)
	if ok {
		c := col.K.StorageClass()
		ok = c == vtypes.ClassI64 || c == vtypes.ClassF64 || c == vtypes.ClassStr
	}
	return col, ok
}

// compare reads `col op v` into iv, whose Col is set. A strict bound on
// BIGINT or DATE is the closed bound one step in, except where that step
// would overflow.
func (iv *Interval) compare(op CmpOp, v *vtypes.Value) {
	switch {
	case v.Null:
		iv.In = []vtypes.Value{}
	case !sameClass(iv.Col, v):
		iv.Unknown = true
	case op == CmpNe:
		iv.Ne = []vtypes.Value{*v}
	default:
		at := Bound{Val: *v, Set: true, Open: op == CmpLt || op == CmpGt}
		switch {
		case v.Kind.StorageClass() != vtypes.ClassI64:
		case op == CmpGt && v.I64 != math.MaxInt64:
			at.Val.I64, at.Open = v.I64+1, false
		case op == CmpLt && v.I64 != math.MinInt64:
			at.Val.I64, at.Open = v.I64-1, false
		}
		if op != CmpLt && op != CmpLe {
			iv.Lo = at
		}
		if op != CmpGt && op != CmpGe {
			iv.Hi = at
		}
	}
}

// sameClass reports whether v is a value the column's statistics order:
// of the column's storage class, and not NaN.
func sameClass(col *ColRef, v *vtypes.Value) bool {
	return v.Kind.StorageClass() == col.K.StorageClass() &&
		!(v.Kind.StorageClass() == vtypes.ClassF64 && math.IsNaN(v.F64))
}

// intersect narrows iv to the values that also satisfy b, a known
// interval on the same column.
func (iv *Interval) intersect(b *Interval) {
	iv.Lo.narrow(&b.Lo, 1)
	iv.Hi.narrow(&b.Hi, -1)
	switch {
	case iv.In == nil:
		iv.In = b.In
	case b.In != nil:
		iv.In = slices.DeleteFunc(slices.Clone(iv.In), func(v vtypes.Value) bool { return !holds(b.In, &v) })
	}
	if b.Ne != nil {
		iv.Ne = append(iv.Ne[:len(iv.Ne):len(iv.Ne)], b.Ne...)
	}
}

// narrow sets e to the narrower of e and b: the larger of two lower ends
// (dir 1) or the smaller of two upper ends (dir -1); of equal values the
// open one.
func (e *Bound) narrow(b *Bound, dir int) {
	if !b.Set {
		return
	}
	c := -1
	if e.Set {
		c = vtypes.CompareRef(&e.Val, &b.Val) * dir
	}
	switch {
	case c < 0:
		*e = *b
	case c == 0:
		e.Open = e.Open || b.Open
	}
}

// Refutes reports whether no value in [min, max] satisfies iv, min and
// max being a row group's statistics of iv's column. Statistics holding
// NaN order nothing and refute nothing. Values are compared in place.
func (iv *Interval) Refutes(min, max *vtypes.Value) bool {
	if iv.Unknown || min.Kind.StorageClass() == vtypes.ClassF64 && (math.IsNaN(min.F64) || math.IsNaN(max.F64)) {
		return false
	}
	lo, loOpen := iv.Lo.clip(min, 1)
	hi, hiOpen := iv.Hi.clip(max, -1)
	if iv.In != nil {
		for i := range iv.In {
			v := &iv.In[i]
			l, h := vtypes.CompareRef(v, lo), vtypes.CompareRef(v, hi)
			if !v.Null && (l > 0 || l == 0 && !loOpen) && (h < 0 || h == 0 && !hiOpen) && !holds(iv.Ne, v) {
				return false
			}
		}
		return true
	}
	c := vtypes.CompareRef(lo, hi)
	return c > 0 || c == 0 && (loOpen || hiOpen || holds(iv.Ne, lo))
}

// clip returns the narrower end of a statistic v and e, as narrow does: a
// lower end (dir 1) or an upper one (dir -1), and whether it is open.
func (e *Bound) clip(v *vtypes.Value, dir int) (*vtypes.Value, bool) {
	if !e.Set {
		return v, false
	}
	switch c := vtypes.CompareRef(v, &e.Val) * dir; {
	case c < 0:
		return &e.Val, e.Open
	case c == 0:
		return v, e.Open
	}
	return v, false
}

// holds reports whether vs holds a non-NULL value equal to v.
func holds(vs []vtypes.Value, v *vtypes.Value) bool {
	for i := range vs {
		if !vs[i].Null && vtypes.CompareRef(&vs[i], v) == 0 {
			return true
		}
	}
	return false
}

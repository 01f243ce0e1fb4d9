// Package expr implements vectorized expression evaluation for the X100
// engine. An expression tree is *compiled* once into a tree of closures
// over monomorphic primitive kernels; evaluation then runs one kernel
// call per vector, never one interface dispatch per row — the crux of
// the paper's ">10× over tuple-at-a-time" claim.
//
// Each operator reads operands of one storage class, as each X100
// primitive is specialised to one type: the planner settles the types
// where operands meet (sql's unify), inserting any cast the plan needs,
// and every constructor here refuses operands of two classes. Kernels
// do not read NULL indicators: a NULL row is judged by its safe value
// (zero, "", false) until NULL semantics become a rewriter rule
// (ROADMAP item 1).
package expr

import (
	"fmt"

	"vectorwise/internal/algebra"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// Expr is a compiled vectorized expression.
type Expr interface {
	// Kind is the result type.
	Kind() vtypes.Kind
	// Eval computes the expression over the batch's live rows. Results
	// are written at live positions (the output aligns with b.Sel).
	Eval(b *vector.Batch) (*vector.Vector, error)
}

// Col references an input column by position.
type Col struct {
	Idx     int
	ColKind vtypes.Kind
}

// NewCol builds a column reference.
func NewCol(idx int, kind vtypes.Kind) *Col { return &Col{Idx: idx, ColKind: kind} }

// Kind implements Expr.
func (c *Col) Kind() vtypes.Kind { return c.ColKind }

// Column returns the referenced input column. Materializing operators
// use it to recognise a key that is a plain column reference, which they
// store once with the payload instead of a second time as a key.
func (c *Col) Column() int { return c.Idx }

// Eval implements Expr: a column reference is free (no copy).
func (c *Col) Eval(b *vector.Batch) (*vector.Vector, error) {
	if c.Idx < 0 || c.Idx >= len(b.Vecs) {
		return nil, fmt.Errorf("expr: column %d out of range (%d cols)", c.Idx, len(b.Vecs))
	}
	return b.Vecs[c.Idx], nil
}

// Const is a literal broadcast over the batch.
type Const struct {
	Val vtypes.Value
	buf *vector.Vector
}

// NewConst builds a literal.
func NewConst(v vtypes.Value) *Const { return &Const{Val: v} }

// Kind implements Expr.
func (c *Const) Kind() vtypes.Kind { return c.Val.Kind }

// Eval implements Expr.
func (c *Const) Eval(b *vector.Batch) (*vector.Vector, error) {
	n := b.Capacity()
	if c.buf == nil || c.buf.Len() < n {
		c.buf = vector.New(c.Val.Kind, n)
		for i := 0; i < n; i++ {
			c.buf.Set(i, c.Val)
		}
	}
	return c.buf, nil
}

// Arith is a compiled binary arithmetic expression. A DOUBLE Arith
// reads coded operands (see package vector): when one operand is a
// constant and the other is coded, the operation runs once per dictionary
// entry and the result is coded too, the operand's codes over the mapped
// dictionary, so `1 - l_discount` does no work per row. Otherwise a coded
// operand's live rows are read through its dictionary into the result
// buffer, which the kernel then reads and writes slot by slot in place; a
// second coded operand's into a buffer of its own.
type Arith struct {
	op          algebra.ArithOp
	left, right Expr
	kind        vtypes.Kind
	buf         *vector.Vector
	fn          func(dst, a, b *vector.Vector, sel []int32, n int)
	// konst is the value of the constant operand, the left one when
	// konstLeft, and hasKonst whether there is one.
	konst               float64
	hasKonst, konstLeft bool
	dm                  *dictMap       // nil until a coded operand meets the constant
	fill                *vector.Vector // nil until two coded operands meet
}

// dictMap is the state of an Arith's map over a coded operand's
// dictionary.
type dictMap struct {
	src    []float64     // the dictionary out maps
	out    vector.Vector // the coded result: codes over the mapped dictionary
	shared vector.Shared // out's Shared: the mapped dictionary
	// One-entry views fn maps through: of the mapped dictionary, the
	// source one and the constant k.
	mapped, entry, konst vector.Vector
	k                    [1]float64
}

// NewArith compiles left op right, operands of one storage class, of
// the kind algebra.ArithKind gives.
func NewArith(op algebra.ArithOp, left, right Expr) (*Arith, error) {
	kind, err := algebra.ArithKind(op, left.Kind(), right.Kind())
	if err != nil {
		return nil, err
	}
	a := &Arith{op: op, left: left, right: right, kind: kind}
	switch kind.StorageClass() {
	case vtypes.ClassI64:
		switch op {
		case algebra.OpAdd:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapAddVV(dst.I64, x.I64, y.I64, sel, n)
			}
		case algebra.OpSub:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapSubVV(dst.I64, x.I64, y.I64, sel, n)
			}
		case algebra.OpMul:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapMulVV(dst.I64, x.I64, y.I64, sel, n)
			}
		case algebra.OpDiv:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapDivVV(dst.I64, x.I64, y.I64, sel, n)
			}
		}
	case vtypes.ClassF64:
		switch op {
		case algebra.OpAdd:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapAddVV(dst.F64, x.F64, y.F64, sel, n)
			}
		case algebra.OpSub:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapSubVV(dst.F64, x.F64, y.F64, sel, n)
			}
		case algebra.OpMul:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapMulVV(dst.F64, x.F64, y.F64, sel, n)
			}
		case algebra.OpDiv:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapDivVV(dst.F64, x.F64, y.F64, sel, n)
			}
		}
	}
	if kind == vtypes.KindF64 {
		if k, ok := constF64(right); ok {
			a.konst, a.hasKonst = k, true
		} else if k, ok := constF64(left); ok {
			a.konst, a.hasKonst, a.konstLeft = k, true, true
		}
	}
	return a, nil
}

// constF64 returns the value a constant DOUBLE operand e evaluates to in
// every slot (a NULL's safe value 0).
func constF64(e Expr) (float64, bool) {
	if c, ok := e.(*Const); ok {
		return c.Val.F64, true
	}
	return 0, false
}

// Kind implements Expr.
func (a *Arith) Kind() vtypes.Kind { return a.kind }

// Eval implements Expr.
func (a *Arith) Eval(b *vector.Batch) (*vector.Vector, error) {
	lv, err := a.left.Eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := a.right.Eval(b)
	if err != nil {
		return nil, err
	}
	switch {
	case a.hasKonst && !a.konstLeft && lv.Codes != nil:
		return a.mapDict(lv), nil
	case a.hasKonst && a.konstLeft && rv.Codes != nil:
		return a.mapDict(rv), nil
	}
	if a.buf == nil || a.buf.Len() < b.Capacity() {
		a.buf = vector.New(a.kind, b.Capacity())
	}
	if lv.Codes != nil && rv.Codes != nil {
		if a.fill == nil {
			a.fill = new(vector.Vector)
		}
		rv = a.fill.FillFrom(rv, b.Sel, b.N)
	}
	switch {
	case lv.Codes != nil:
		primitives.MapCodes(a.buf.F64, lv.Codes, lv.DictF64(), b.Sel, b.N)
		lv = a.buf
	case rv.Codes != nil:
		primitives.MapCodes(a.buf.F64, rv.Codes, rv.DictF64(), b.Sel, b.N)
		rv = a.buf
	}
	n := b.N
	if b.Sel == nil {
		if n == 0 {
			return a.buf, nil
		}
		a.fn(a.buf, lv, rv, nil, n)
	} else {
		a.fn(a.buf, lv, rv, b.Sel, n)
	}
	return a.buf, nil
}

// mapDict is Arith over the coded operand v and the constant: the
// operation runs over v's dictionary, once per dictionary, and the result
// is v's codes over the mapped dictionary. Each source dictionary maps
// into an array of its own, so vector.SameDict on results tells maps of
// different dictionaries apart.
func (a *Arith) mapDict(v *vector.Vector) *vector.Vector {
	m := a.dm
	if m == nil {
		m = &dictMap{k: [1]float64{a.konst}}
		m.konst.F64 = m.k[:]
		a.dm = m
	}
	if dict := v.DictF64(); !vector.SameDict(m.src, dict) {
		m.src, m.shared.DictF64 = dict, make([]float64, len(dict))
		x, y := &m.entry, &m.konst
		if a.konstLeft {
			x, y = y, x
		}
		for i := range dict {
			m.mapped.F64, m.entry.F64 = m.shared.DictF64[i:i+1], dict[i:i+1]
			a.fn(&m.mapped, x, y, nil, 1)
		}
	}
	m.out.Kind, m.out.Codes, m.out.Shared = a.kind, v.Codes, &m.shared
	return &m.out
}

// Cast converts between the numeric storage classes.
type Cast struct {
	in   Expr
	kind vtypes.Kind
	buf  *vector.Vector
}

// NewCast compiles a cast of in to kind (numeric classes only; casting
// to the same class relabels the kind, e.g. DATE → BIGINT).
func NewCast(in Expr, kind vtypes.Kind) *Cast { return &Cast{in: in, kind: kind} }

// Kind implements Expr.
func (c *Cast) Kind() vtypes.Kind { return c.kind }

// Eval implements Expr.
func (c *Cast) Eval(b *vector.Batch) (*vector.Vector, error) {
	v, err := c.in.Eval(b)
	if err != nil {
		return nil, err
	}
	if v.Kind.StorageClass() == c.kind.StorageClass() {
		if v.Kind == c.kind {
			return v, nil
		}
		out := *v
		out.Kind = c.kind
		return &out, nil
	}
	if c.buf == nil || c.buf.Len() < b.Capacity() {
		c.buf = vector.New(c.kind, b.Capacity())
	}
	n := b.N
	if n == 0 {
		return c.buf, nil
	}
	switch {
	case c.kind.StorageClass() == vtypes.ClassF64 && v.Kind.StorageClass() == vtypes.ClassI64:
		primitives.MapI64ToF64(c.buf.F64, v.I64, b.Sel, n)
	case c.kind.StorageClass() == vtypes.ClassI64 && v.Kind.StorageClass() == vtypes.ClassF64:
		primitives.MapF64ToI64(c.buf.I64, v.F64, b.Sel, n)
	default:
		return nil, fmt.Errorf("expr: unsupported cast %v → %v", v.Kind, c.kind)
	}
	c.buf.Nulls = v.Nulls // a NULL stays NULL: SUM(CAST(x AS DOUBLE)) skips it
	return c.buf, nil
}

// YearOf extracts the calendar year from a date column.
type YearOf struct {
	in  Expr
	buf *vector.Vector
}

// NewYearOf compiles EXTRACT(YEAR FROM in).
func NewYearOf(in Expr) *YearOf { return &YearOf{in: in} }

// Kind implements Expr.
func (y *YearOf) Kind() vtypes.Kind { return vtypes.KindI64 }

// Eval implements Expr.
func (y *YearOf) Eval(b *vector.Batch) (*vector.Vector, error) {
	v, err := y.in.Eval(b)
	if err != nil {
		return nil, err
	}
	if y.buf == nil || y.buf.Len() < b.Capacity() {
		y.buf = vector.New(vtypes.KindI64, b.Capacity())
	}
	n := b.N
	if b.Sel == nil {
		for i := 0; i < n; i++ {
			y.buf.I64[i] = vtypes.Year(v.I64[i])
		}
	} else {
		for _, i := range b.Sel[:n] {
			y.buf.I64[i] = vtypes.Year(v.I64[i])
		}
	}
	return y.buf, nil
}

// Case is a two-armed CASE WHEN cond THEN a ELSE b END. The condition is
// a compiled boolean Expr; both arms evaluate over the full live set and
// blend — branch-free, as X100 compiles conditionals. A coded DOUBLE arm
// is read through its dictionary.
type Case struct {
	cond     Expr
	then, el Expr
	kind     vtypes.Kind
	buf      *vector.Vector
}

// NewCase compiles the conditional over arms of one kind.
func NewCase(cond, then, el Expr) (*Case, error) {
	if cond.Kind() != vtypes.KindBool {
		return nil, fmt.Errorf("expr: CASE condition must be boolean, got %v", cond.Kind())
	}
	if then.Kind() != el.Kind() {
		return nil, fmt.Errorf("expr: CASE arms disagree: %v vs %v", then.Kind(), el.Kind())
	}
	return &Case{cond: cond, then: then, el: el, kind: then.Kind()}, nil
}

// Kind implements Expr.
func (c *Case) Kind() vtypes.Kind { return c.kind }

// Eval implements Expr.
func (c *Case) Eval(b *vector.Batch) (*vector.Vector, error) {
	cv, err := c.cond.Eval(b)
	if err != nil {
		return nil, err
	}
	tv, err := c.then.Eval(b)
	if err != nil {
		return nil, err
	}
	ev, err := c.el.Eval(b)
	if err != nil {
		return nil, err
	}
	if c.buf == nil || c.buf.Len() < b.Capacity() {
		c.buf = vector.New(c.kind, b.Capacity())
	}
	blend := func(i int32) {
		if cv.B[i] {
			c.buf.CopyFrom(tv, int(i), int(i), 1)
		} else {
			c.buf.CopyFrom(ev, int(i), int(i), 1)
		}
	}
	// Blend per storage class without boxing.
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		if b.Sel == nil {
			for i := 0; i < b.N; i++ {
				if cv.B[i] {
					c.buf.I64[i] = tv.I64[i]
				} else {
					c.buf.I64[i] = ev.I64[i]
				}
			}
		} else {
			for _, i := range b.Sel[:b.N] {
				if cv.B[i] {
					c.buf.I64[i] = tv.I64[i]
				} else {
					c.buf.I64[i] = ev.I64[i]
				}
			}
		}
	case vtypes.ClassF64:
		if b.Sel == nil {
			for i := 0; i < b.N; i++ {
				if cv.B[i] {
					c.buf.F64[i] = tv.F64At(i)
				} else {
					c.buf.F64[i] = ev.F64At(i)
				}
			}
		} else {
			for _, i := range b.Sel[:b.N] {
				if cv.B[i] {
					c.buf.F64[i] = tv.F64At(int(i))
				} else {
					c.buf.F64[i] = ev.F64At(int(i))
				}
			}
		}
	default:
		if b.Sel == nil {
			for i := 0; i < b.N; i++ {
				blend(int32(i))
			}
		} else {
			for _, i := range b.Sel[:b.N] {
				blend(i)
			}
		}
	}
	return c.buf, nil
}

package expr

import (
	"fmt"

	"vectorwise/internal/algebra"
	"vectorwise/internal/compress"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// Pred is a compiled predicate: it consumes the batch's live set and
// narrows it, producing a selection vector — no row is ever copied.
type Pred interface {
	// Filter narrows b's live set in place.
	Filter(b *vector.Batch) error
}

// CmpLt, OpAdd, OpSub and OpMul name algebra's operators for frozen
// bench/, which builds kernels by these names; the module itself uses
// algebra's.
const (
	CmpLt = algebra.CmpLt
	OpAdd = algebra.OpAdd
	OpSub = algebra.OpSub
	OpMul = algebra.OpMul
)

// NewCmpConst compiles `e OP literal`, the two of one storage class. A
// NULL literal is never true.
func NewCmpConst(e Expr, op algebra.CmpOp, val vtypes.Value) (Pred, error) {
	if val.Null {
		return neverPred{}, nil
	}
	if err := sameClass(e.Kind(), val.Kind); err != nil {
		return nil, err
	}
	switch val.Kind.StorageClass() {
	case vtypes.ClassI64:
		return cmpPred(e, i64Vals, op, val.I64), nil
	case vtypes.ClassF64:
		return cmpPred(e, f64Vals, op, val.F64), nil
	case vtypes.ClassStr:
		p, c, want := cmpPred(e, strVals, op, val.Str), val.Str, cmpWants[op]
		p.arena = func(res []int32, off []uint32, b []byte, sel []int32, n int) int {
			return primitives.SelCmpArena(res, off, b, c, want, sel, n)
		}
		if op == algebra.CmpEq || op == algebra.CmpNe {
			enc := &fsstConsts{consts: []string{c}}
			p.fsst = func(res []int32, off []uint32, codes []byte, sym *compress.Symbols, sel []int32, n int) int {
				return primitives.SelCmpArena(res, off, codes, enc.of(sym)[0], want, sel, n)
			}
		}
		return p, nil
	}
	if op != algebra.CmpEq && op != algebra.CmpNe {
		return nil, fmt.Errorf("expr: booleans only support =/<>")
	}
	return &boolConst{expr: e, want: val.B == (op == algebra.CmpEq)}, nil
}

// cmpWants is each algebra.CmpOp as the comparison outcomes it accepts.
var cmpWants = [...]primitives.CmpWant{
	algebra.CmpEq: primitives.WantEq, algebra.CmpNe: primitives.WantNe,
	algebra.CmpLt: primitives.WantLt, algebra.CmpLe: primitives.WantLe,
	algebra.CmpGt: primitives.WantGt, algebra.CmpGe: primitives.WantGe,
}

func cmpPred[T primitives.Ordered](e Expr, vals payload[T], op algebra.CmpOp, c T) *valPred[T] {
	return &valPred[T]{expr: e, vals: vals, kern: func(res []int32, a []T, sel []int32, n int) int {
		return selCmp(res, a, c, op, sel, n)
	}}
}

// boolConst selects the live rows where a boolean e is want.
type boolConst struct {
	expr Expr
	want bool
}

// Filter implements Pred.
func (p *boolConst) Filter(b *vector.Batch) error {
	v, err := p.expr.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	if p.want {
		b.SetSel(res, primitives.SelTrue(res, v.B, b.Sel, b.N))
	} else {
		b.SetSel(res, primitives.SelFalse(res, v.B, b.Sel, b.N))
	}
	return nil
}

func selCmp[T primitives.Ordered](res []int32, a []T, c T, op algebra.CmpOp, sel []int32, n int) int {
	switch op {
	case algebra.CmpEq:
		return primitives.SelEqVC(res, a, c, sel, n)
	case algebra.CmpNe:
		return primitives.SelNeVC(res, a, c, sel, n)
	case algebra.CmpLt:
		return primitives.SelLtVC(res, a, c, sel, n)
	case algebra.CmpLe:
		return primitives.SelLeVC(res, a, c, sel, n)
	case algebra.CmpGt:
		return primitives.SelGtVC(res, a, c, sel, n)
	default:
		return primitives.SelGeVC(res, a, c, sel, n)
	}
}

// cmpCols filters colA OP colB. A coded or arena side is filled into the
// predicate's own buffer (bufs, made at the first such batch) before the
// kernel runs.
type cmpCols struct {
	left, right Expr
	op          algebra.CmpOp
	bufs        *[2]vector.Vector
}

// NewCmpCols compiles `a OP b` for two expressions of one storage class.
func NewCmpCols(a Expr, op algebra.CmpOp, b Expr) (Pred, error) {
	if err := sameClass(a.Kind(), b.Kind()); err != nil {
		return nil, err
	}
	if a.Kind().StorageClass() == vtypes.ClassBool && op != algebra.CmpEq && op != algebra.CmpNe {
		return nil, fmt.Errorf("expr: booleans only support =/<>")
	}
	return &cmpCols{left: a, right: b, op: op}, nil
}

// Filter implements Pred.
func (p *cmpCols) Filter(b *vector.Batch) error {
	lv, err := p.left.Eval(b)
	if err != nil {
		return err
	}
	rv, err := p.right.Eval(b)
	if err != nil {
		return err
	}
	if lv.Packed() || rv.Packed() {
		if p.bufs == nil {
			p.bufs = new([2]vector.Vector)
		}
		lv, rv = p.bufs[0].FillFrom(lv, b.Sel, b.N), p.bufs[1].FillFrom(rv, b.Sel, b.N)
	}
	res := b.MutableSel(b.Capacity())
	var k int
	switch lv.Kind.StorageClass() {
	case vtypes.ClassI64:
		k = selCmpVV(res, lv.I64, rv.I64, p.op, b.Sel, b.N)
	case vtypes.ClassF64:
		k = selCmpVV(res, lv.F64, rv.F64, p.op, b.Sel, b.N)
	case vtypes.ClassStr:
		k = selCmpVV(res, lv.Str, rv.Str, p.op, b.Sel, b.N)
	case vtypes.ClassBool:
		if p.op == algebra.CmpEq {
			k = primitives.SelEqVV(res, lv.B, rv.B, b.Sel, b.N)
		} else {
			k = primitives.SelNeVV(res, lv.B, rv.B, b.Sel, b.N)
		}
	}
	b.SetSel(res, k)
	return nil
}

func selCmpVV[T primitives.Ordered](res []int32, a, b []T, op algebra.CmpOp, sel []int32, n int) int {
	switch op {
	case algebra.CmpEq:
		return primitives.SelEqVV(res, a, b, sel, n)
	case algebra.CmpNe:
		return primitives.SelNeVV(res, a, b, sel, n)
	case algebra.CmpLt:
		return primitives.SelLtVV(res, a, b, sel, n)
	case algebra.CmpLe:
		return primitives.SelLeVV(res, a, b, sel, n)
	case algebra.CmpGt:
		return primitives.SelGtVV(res, a, b, sel, n)
	default:
		return primitives.SelGeVV(res, a, b, sel, n)
	}
}

// NewBetween compiles `e BETWEEN lo AND hi` with the fused kernel.
func NewBetween(e Expr, lo, hi vtypes.Value) (Pred, error) {
	if lo.Null || hi.Null {
		return neverPred{}, nil
	}
	if e.Kind().StorageClass() != lo.Kind.StorageClass() || lo.Kind.StorageClass() != hi.Kind.StorageClass() {
		return nil, fmt.Errorf("expr: BETWEEN type mismatch (%v, %v, %v)", e.Kind(), lo.Kind, hi.Kind)
	}
	switch lo.Kind.StorageClass() {
	case vtypes.ClassI64:
		l, h := lo.I64, hi.I64
		return &valPred[int64]{expr: e, vals: i64Vals, kern: func(res []int32, a []int64, sel []int32, n int) int {
			return primitives.SelBetweenI64VC(res, a, l, h, sel, n)
		}}, nil
	case vtypes.ClassF64:
		return betweenPred(e, f64Vals, lo.F64, hi.F64), nil
	case vtypes.ClassStr:
		p, l, h := betweenPred(e, strVals, lo.Str, hi.Str), lo.Str, hi.Str
		p.arena = func(res []int32, off []uint32, b []byte, sel []int32, n int) int {
			return primitives.SelBetweenArena(res, off, b, l, h, sel, n)
		}
		return p, nil
	}
	return nil, fmt.Errorf("expr: BETWEEN unsupported for %v", e.Kind())
}

func betweenPred[T primitives.Ordered](e Expr, vals payload[T], lo, hi T) *valPred[T] {
	return &valPred[T]{expr: e, vals: vals, kern: func(res []int32, a []T, sel []int32, n int) int {
		return primitives.SelBetweenVC(res, a, lo, hi, sel, n)
	}}
}

// NewLike compiles `e [NOT] LIKE pattern`.
func NewLike(e Expr, pattern string, negate bool) (Pred, error) {
	if e.Kind().StorageClass() != vtypes.ClassStr {
		return nil, fmt.Errorf("expr: LIKE requires a string, got %v", e.Kind())
	}
	p := &valPred[string]{expr: e, vals: strVals, kern: func(res []int32, s []string, sel []int32, n int) int {
		if negate {
			return primitives.SelNotLike(res, s, pattern, sel, n)
		}
		return primitives.SelLike(res, s, pattern, sel, n)
	}, arena: func(res []int32, off []uint32, b []byte, sel []int32, n int) int {
		return primitives.SelLikeArena(res, off, b, pattern, !negate, sel, n)
	}}
	if like := primitives.NewLikeCodes(pattern); like != nil {
		p.fsst = func(res []int32, off []uint32, codes []byte, sym *compress.Symbols, sel []int32, n int) int {
			return like.Sel(res, off, codes, sym, !negate, sel, n)
		}
	}
	return p, nil
}

// NewInSet compiles `e IN (consts...)`, members of e's storage class.
// NULL members match nothing; a DOUBLE member matches as `=` does, by
// IEEE equality.
func NewInSet(e Expr, vals []vtypes.Value) (Pred, error) {
	class := e.Kind().StorageClass()
	var i64s []int64
	var f64s []float64
	var strs []string
	for _, v := range vals {
		if v.Null {
			continue
		}
		if err := sameClass(e.Kind(), v.Kind); err != nil {
			return nil, err
		}
		switch class {
		case vtypes.ClassI64:
			i64s = append(i64s, v.I64)
		case vtypes.ClassF64:
			f64s = append(f64s, v.F64)
		case vtypes.ClassStr:
			strs = append(strs, v.Str)
		}
	}
	switch {
	case class != vtypes.ClassI64 && class != vtypes.ClassF64 && class != vtypes.ClassStr:
		return nil, fmt.Errorf("expr: IN unsupported for %v", e.Kind())
	case i64s == nil && f64s == nil && strs == nil:
		return neverPred{}, nil
	case class == vtypes.ClassI64:
		return inPred(e, i64Vals, i64s), nil
	case class == vtypes.ClassF64:
		return inPred(e, f64Vals, f64s), nil
	}
	p := inPred(e, strVals, strs)
	p.arena = func(res []int32, off []uint32, b []byte, sel []int32, n int) int {
		return primitives.SelInSetArena(res, off, b, strs, sel, n)
	}
	enc := &fsstConsts{consts: strs}
	p.fsst = func(res []int32, off []uint32, codes []byte, sym *compress.Symbols, sel []int32, n int) int {
		return primitives.SelInSetArena(res, off, codes, enc.of(sym), sel, n)
	}
	return p, nil
}

// sameClass refuses operands of two storage classes: the planner
// settles where types meet, so a kernel never converts.
func sameClass(a, b vtypes.Kind) error {
	if a.StorageClass() != b.StorageClass() {
		return fmt.Errorf("expr: cannot compare %v with %v", a, b)
	}
	return nil
}

// fsstConsts are a VARCHAR predicate's constants and their codes in the
// symbol table of the FSST chunk it read last. A chunk's encoding is a
// function of its table and the string alone, so a row equals a constant
// exactly when their codes are equal: =, <> and IN compare codes.
type fsstConsts struct {
	consts []string
	sym    *compress.Symbols
	codes  []string
}

// of returns the constants' codes in sym, encoding them when sym is not
// the table they were last encoded in.
func (e *fsstConsts) of(sym *compress.Symbols) []string {
	if sym != e.sym {
		e.sym, e.codes = sym, e.codes[:0]
		for _, c := range e.consts {
			e.codes = append(e.codes, string(sym.Encode(nil, c)))
		}
	}
	return e.codes
}

func inPred[T comparable](e Expr, vals payload[T], set []T) *valPred[T] {
	return &valPred[T]{expr: e, vals: vals, kern: func(res []int32, a []T, sel []int32, n int) int {
		return primitives.SelInSet(res, a, set, sel, n)
	}}
}

// kernel selects the live rows sel[:n] of a that a single-column
// predicate accepts into res and returns their count: the predicate's
// Sel* kernel, over values of type T.
type kernel[T any] func(res []int32, a []T, sel []int32, n int) int

// arenaKernel is a VARCHAR predicate's kernel over an arena vector (see
// package vector): it selects the live rows sel[:n] of the rows (off, b)
// it accepts, reading each row's bytes where they lie.
type arenaKernel func(res []int32, off []uint32, b []byte, sel []int32, n int) int

// fsstKernel is a VARCHAR predicate's kernel over an FSST arena's codes:
// it selects the live rows sel[:n] of the rows (off, codes), coded by
// sym, that it accepts, decoding none.
type fsstKernel func(res []int32, off []uint32, codes []byte, sym *compress.Symbols, sel []int32, n int) int

// payload returns a vector's values of type T and, when it is coded, its
// dictionary.
type payload[T any] func(v *vector.Vector) (vals, dict []T)

func i64Vals(v *vector.Vector) ([]int64, []int64)     { return v.I64, nil }
func f64Vals(v *vector.Vector) ([]float64, []float64) { return v.F64, v.DictF64() }
func strVals(v *vector.Vector) ([]string, []string)   { return v.Str, v.Dict() }

// valPred is every single-column predicate on a BIGINT, DATE, DOUBLE or
// VARCHAR value but a boolean's: comparisons with a literal, BETWEEN, IN,
// LIKE and NOT LIKE. It narrows b's live set to the rows whose value of
// expr kern selects. A coded value is filtered on its codes through
// codes, the predicate's own member table, made at the first coded batch;
// an arena VARCHAR on its bytes by arena, which every VARCHAR predicate
// has. An FSST arena is filtered on its codes by fsst, which =, <>, IN and
// a LIKE of a fast shape have; for any other predicate its live rows are
// decoded into decoded, the predicate's own, and arena runs on them.
type valPred[T any] struct {
	expr    Expr
	vals    payload[T]
	kern    kernel[T]
	arena   arenaKernel
	fsst    fsstKernel
	codes   *dictTable[T]
	decoded *decodedRows
}

// decodedRows is a predicate's scratch arena of an FSST arena's live rows
// (primitives.DecodeRows), reused from batch to batch.
type decodedRows struct {
	off []uint32
	b   []byte
}

// Filter implements Pred.
func (p *valPred[T]) Filter(b *vector.Batch) error {
	v, err := p.expr.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	vals, dict := p.vals(v)
	var k int
	switch {
	case v.Codes != nil:
		if p.codes == nil {
			p.codes = new(dictTable[T])
		}
		k = p.codes.sel(res, v.Codes, dict, b.Sel, b.N, p.kern)
	case v.Off != nil:
		off, bytes := v.Off, v.Shared.Bytes
		if sym := v.Shared.Symbols; sym != nil {
			if p.fsst != nil {
				k = p.fsst(res, off, bytes, sym, b.Sel, b.N)
				break
			}
			if p.decoded == nil {
				p.decoded = new(decodedRows)
			}
			d := p.decoded
			d.off, d.b = primitives.DecodeRows(d.off, d.b, off, bytes, sym, b.Sel, b.N)
			off, bytes = d.off, d.b
		}
		k = p.arena(res, off, bytes, b.Sel, b.N)
	default:
		k = p.kern(res, vals, b.Sel, b.N)
	}
	b.SetSel(res, k)
	return nil
}

// dictTable is how a single-column predicate reads a coded vector: its
// kernel runs once over the dictionary, into member, and each row then
// costs one member[code] (primitives.SelCodeIn). The table is rebuilt when
// the dictionary changes. A NULL row is judged by the code of its safe
// value, as the kernel judges the safe value itself.
type dictTable[T any] struct {
	dict   []T // the dictionary member was built for
	member [256]bool
	hits   [32]int32 // the kernel's output over a block of entries
}

// sel selects the live rows sel[:n] of codes, coding values of dict,
// whose entry kern matches.
func (d *dictTable[T]) sel(res []int32, codes []uint8, dict []T, sel []int32, n int, kern kernel[T]) int {
	if !vector.SameDict(d.dict, dict) {
		d.dict, d.member = dict, [256]bool{}
		for lo := 0; lo < len(dict); lo += len(d.hits) {
			hi := min(lo+len(d.hits), len(dict))
			for _, c := range d.hits[:kern(d.hits[:], dict[lo:hi], nil, hi-lo)] {
				d.member[lo+int(c)] = true
			}
		}
	}
	return primitives.SelCodeIn(res, codes, &d.member, sel, n)
}

// andPred chains conjuncts: each narrows the live set further, so later
// conjuncts run on ever-smaller selections (X100 conjunct chaining).
type andPred struct{ preds []Pred }

// NewAnd compiles a conjunction.
func NewAnd(preds ...Pred) Pred { return &andPred{preds: preds} }

// Filter implements Pred.
func (p *andPred) Filter(b *vector.Batch) error {
	for _, q := range p.preds {
		if err := q.Filter(b); err != nil {
			return err
		}
		if b.N == 0 {
			return nil
		}
	}
	return nil
}

// neverPred matches no rows: what a comparison against a NULL literal
// compiles to (never true in SQL), so the evaluated predicate and the
// Skip read from the same conjunct agree. The leaf
// constructors above are the only place that rule lives.
type neverPred struct{}

// Filter implements Pred.
func (neverPred) Filter(b *vector.Batch) error {
	b.SetSel(b.MutableSel(b.Capacity()), 0)
	return nil
}

// nullPred selects rows by a column's NULL indicator — the compiled form
// of IS [NOT] NULL after the storage layer's two-column decomposition.
type nullPred struct {
	col    *Col
	negate bool // true = IS NOT NULL
}

// NewIsNull compiles `col IS [NOT] NULL`.
func NewIsNull(col *Col, negate bool) Pred { return &nullPred{col: col, negate: negate} }

// Filter implements Pred.
func (p *nullPred) Filter(b *vector.Batch) error {
	v, err := p.col.Eval(b)
	if err != nil {
		return err
	}
	if v.Nulls == nil { // no indicator: nothing is NULL
		if p.negate {
			return nil
		}
		return neverPred{}.Filter(b)
	}
	res := b.MutableSel(b.Capacity())
	if p.negate {
		b.SetSel(res, primitives.SelIsNotNull(res, v.Nulls, b.Sel, b.N))
	} else {
		b.SetSel(res, primitives.SelIsNull(res, v.Nulls, b.Sel, b.N))
	}
	return nil
}

// predMap is a predicate used as a value: a boolean vector that is true
// at the live rows any of its predicates keeps. It is the only boolean-
// producing Expr — every boolean scalar compiles to a Pred first — and
// OR is built on it, because both must evaluate predicates over the
// caller's live set without narrowing it. Each predicate filters
// a private view of the batch: the same vectors, the view's own selection
// buffer. The caller's Sel, which is usually an alias of the caller's own
// selection buffer, is only ever read, never written or re-installed; the
// survivors are scattered into marks, which the expression owns for as
// long as its operator lives.
type predMap struct {
	preds []Pred
	view  vector.Batch
	marks *vector.Vector
}

// NewPredMap compiles a predicate into a boolean expression, true at the
// live rows the predicate keeps. A predicate that is itself a boolean
// expression selected for true is that expression.
func NewPredMap(p Pred) Expr {
	if bp, ok := p.(*boolConst); ok && bp.want {
		return bp.expr
	}
	return &predMap{preds: []Pred{p}}
}

// Kind implements Expr.
func (m *predMap) Kind() vtypes.Kind { return vtypes.KindBool }

// Eval implements Expr. b's live set is left as it was.
func (m *predMap) Eval(b *vector.Batch) (*vector.Vector, error) {
	if m.marks == nil || m.marks.Len() < b.Capacity() {
		m.marks = vector.New(vtypes.KindBool, b.Capacity())
	}
	primitives.MapConst(m.marks.B, false, b.Sel, b.N)
	for _, p := range m.preds {
		m.view.Vecs, m.view.Sel, m.view.N = b.Vecs, b.Sel, b.N
		if err := p.Filter(&m.view); err != nil {
			return nil, err
		}
		primitives.MapConst(m.marks.B, true, m.view.Sel, m.view.N)
	}
	return m.marks, nil
}

// NewBoolPred adapts a boolean expression to a predicate: the live rows
// where it is true.
func NewBoolPred(e Expr) (Pred, error) {
	if e.Kind() != vtypes.KindBool {
		return nil, fmt.Errorf("expr: predicate expression must be boolean, got %v", e.Kind())
	}
	return &boolConst{expr: e, want: true}, nil
}

// NewOr compiles a disjunction: every disjunct runs over the incoming
// live set and the rows any of them kept are selected.
func NewOr(preds ...Pred) Pred { return &boolConst{expr: &predMap{preds: preds}, want: true} }

package expr

import (
	"fmt"
	"slices"

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

// CmpOp names a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// Flip mirrors the operator for swapped operands (c OP col → col flip(OP) c).
func (o CmpOp) Flip() CmpOp {
	switch o {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	default:
		return o
	}
}

// cmpConst filters col OP literal through the Sel* kernels.
type cmpConst struct {
	expr Expr
	op   CmpOp
	val  vtypes.Value
}

// NewCmpConst compiles `e OP literal`. Mixed int/float operands compare
// as DOUBLE, the rule NewCmpCols applies to two columns.
func NewCmpConst(e Expr, op CmpOp, val vtypes.Value) (Pred, error) {
	if val.Null {
		return neverPred{}, nil
	}
	ek := e.Kind().StorageClass()
	vk := val.Kind.StorageClass()
	if ek != vk {
		switch {
		case ek == vtypes.ClassF64 && vk == vtypes.ClassI64:
			val = vtypes.F64Value(float64(val.I64))
		case ek == vtypes.ClassI64 && vk == vtypes.ClassF64:
			e = NewCast(e, vtypes.KindF64)
		default:
			return nil, fmt.Errorf("expr: cannot compare %v with %v", e.Kind(), val.Kind)
		}
	}
	if ek == vtypes.ClassBool && op != CmpEq && op != CmpNe {
		return nil, fmt.Errorf("expr: booleans only support =/<>")
	}
	return &cmpConst{expr: e, op: op, val: val}, nil
}

// Filter implements Pred.
func (p *cmpConst) Filter(b *vector.Batch) error {
	v, err := p.expr.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	var k int
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		k = selCmp(res, v.I64, p.val.I64, p.op, b.Sel, b.N)
	case vtypes.ClassF64:
		k = selCmp(res, v.F64, p.val.F64, p.op, b.Sel, b.N)
	case vtypes.ClassStr:
		k = selCmp(res, v.Str, p.val.Str, p.op, b.Sel, b.N)
	case vtypes.ClassBool:
		want := p.val.B
		if p.op == CmpNe {
			want = !want
		}
		if want {
			k = primitives.SelTrue(res, v.B, b.Sel, b.N)
		} else {
			k = primitives.SelFalse(res, v.B, b.Sel, b.N)
		}
	}
	b.SetSel(res, k)
	return nil
}

func selCmp[T primitives.Ordered](res []int32, a []T, c T, op CmpOp, sel []int32, n int) int {
	switch op {
	case CmpEq:
		return primitives.SelEqVC(res, a, c, sel, n)
	case CmpNe:
		return primitives.SelNeVC(res, a, c, sel, n)
	case CmpLt:
		return primitives.SelLtVC(res, a, c, sel, n)
	case CmpLe:
		return primitives.SelLeVC(res, a, c, sel, n)
	case CmpGt:
		return primitives.SelGtVC(res, a, c, sel, n)
	default:
		return primitives.SelGeVC(res, a, c, sel, n)
	}
}

// cmpCols filters colA OP colB.
type cmpCols struct {
	left, right Expr
	op          CmpOp
}

// NewCmpCols compiles `a OP b` for two expressions of one storage class.
func NewCmpCols(a Expr, op CmpOp, b Expr) (Pred, error) {
	if a.Kind().StorageClass() != b.Kind().StorageClass() {
		if a.Kind().Numeric() && b.Kind().Numeric() {
			a = NewCast(a, vtypes.KindF64)
			b = NewCast(b, vtypes.KindF64)
		} else {
			return nil, fmt.Errorf("expr: cannot compare %v with %v", a.Kind(), b.Kind())
		}
	}
	if a.Kind().StorageClass() == vtypes.ClassBool && op != CmpEq && op != CmpNe {
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
		if p.op == CmpEq {
			k = primitives.SelEqVV(res, lv.B, rv.B, b.Sel, b.N)
		} else {
			k = primitives.SelNeVV(res, lv.B, rv.B, b.Sel, b.N)
		}
	}
	b.SetSel(res, k)
	return nil
}

func selCmpVV[T primitives.Ordered](res []int32, a, b []T, op CmpOp, sel []int32, n int) int {
	switch op {
	case CmpEq:
		return primitives.SelEqVV(res, a, b, sel, n)
	case CmpNe:
		return primitives.SelNeVV(res, a, b, sel, n)
	case CmpLt:
		return primitives.SelLtVV(res, a, b, sel, n)
	case CmpLe:
		return primitives.SelLeVV(res, a, b, sel, n)
	case CmpGt:
		return primitives.SelGtVV(res, a, b, sel, n)
	default:
		return primitives.SelGeVV(res, a, b, sel, n)
	}
}

// between filters lo <= e <= hi with the fused kernel.
type between struct {
	expr   Expr
	lo, hi vtypes.Value
}

// NewBetween compiles `e BETWEEN lo AND hi`.
func NewBetween(e Expr, lo, hi vtypes.Value) (Pred, error) {
	if lo.Null || hi.Null {
		return neverPred{}, nil
	}
	if e.Kind().StorageClass() != lo.Kind.StorageClass() || lo.Kind.StorageClass() != hi.Kind.StorageClass() {
		return nil, fmt.Errorf("expr: BETWEEN type mismatch (%v, %v, %v)", e.Kind(), lo.Kind, hi.Kind)
	}
	return &between{expr: e, lo: lo, hi: hi}, nil
}

// Filter implements Pred.
func (p *between) Filter(b *vector.Batch) error {
	v, err := p.expr.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	var k int
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		k = primitives.SelBetweenI64VC(res, v.I64, p.lo.I64, p.hi.I64, b.Sel, b.N)
	case vtypes.ClassF64:
		k = primitives.SelBetweenVC(res, v.F64, p.lo.F64, p.hi.F64, b.Sel, b.N)
	case vtypes.ClassStr:
		k = primitives.SelBetweenVC(res, v.Str, p.lo.Str, p.hi.Str, b.Sel, b.N)
	default:
		return fmt.Errorf("expr: BETWEEN unsupported for %v", v.Kind)
	}
	b.SetSel(res, k)
	return nil
}

// like filters string LIKE pattern.
type like struct {
	expr    Expr
	pattern string
	negate  bool
}

// NewLike compiles `e [NOT] LIKE pattern`.
func NewLike(e Expr, pattern string, negate bool) (Pred, error) {
	if e.Kind().StorageClass() != vtypes.ClassStr {
		return nil, fmt.Errorf("expr: LIKE requires a string, got %v", e.Kind())
	}
	return &like{expr: e, pattern: pattern, negate: negate}, nil
}

// Filter implements Pred.
func (p *like) Filter(b *vector.Batch) error {
	v, err := p.expr.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	var k int
	if p.negate {
		k = primitives.SelNotLike(res, v.Str, p.pattern, b.Sel, b.N)
	} else {
		k = primitives.SelLike(res, v.Str, p.pattern, b.Sel, b.N)
	}
	b.SetSel(res, k)
	return nil
}

// inSet filters e IN (list). Over a VARCHAR whose vector carries
// dictionary codes and no null indicator, each dictionary entry is tested
// against the list once, into member, and each row costs one member[code].
type inSet struct {
	expr Expr
	strs []string
	i64s []int64
	// member[c] says whether dict[c] is in strs.
	dict   []string
	member [256]bool
}

// NewInSet compiles `e IN (consts...)`. NULL members match nothing.
func NewInSet(e Expr, vals []vtypes.Value) (Pred, error) {
	p := &inSet{expr: e}
	class := e.Kind().StorageClass()
	if class != vtypes.ClassStr && class != vtypes.ClassI64 {
		return nil, fmt.Errorf("expr: IN unsupported for %v", e.Kind())
	}
	for _, v := range vals {
		switch {
		case v.Null:
		case class == vtypes.ClassStr:
			p.strs = append(p.strs, v.Str)
		default:
			p.i64s = append(p.i64s, v.I64)
		}
	}
	if p.strs == nil && p.i64s == nil {
		return neverPred{}, nil
	}
	return p, nil
}

// Filter implements Pred.
func (p *inSet) Filter(b *vector.Batch) error {
	v, err := p.expr.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	var k int
	switch {
	case p.strs != nil && v.Codes != nil && v.Nulls == nil:
		if !vector.SameDict(p.dict, v.Dict) {
			p.dict = v.Dict
			for c, s := range v.Dict {
				p.member[c] = slices.Contains(p.strs, s)
			}
		}
		k = primitives.SelCodeIn(res, v.Codes, &p.member, b.Sel, b.N)
	case p.strs != nil:
		k = primitives.SelInSet(res, v.Str, p.strs, b.Sel, b.N)
	default:
		k = primitives.SelInSet(res, v.I64, p.i64s, b.Sel, b.N)
	}
	b.SetSel(res, k)
	return nil
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
// prune function synthesized from the same conjunct agree. The leaf
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
// OR and NOT are built on it, because all three must evaluate predicates
// over the caller's live set without narrowing it. Each predicate filters
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
	if bp, ok := p.(*boolExprPred); ok && !bp.negate {
		return bp.e
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

// boolExprPred selects the live rows where a boolean expression is true
// (or, negated, false): a boolean column, a CASE, or the marks of a
// predMap — ascending and duplicate-free whatever marked them.
type boolExprPred struct {
	e      Expr
	negate bool
}

// NewBoolPred adapts a boolean expression to a predicate.
func NewBoolPred(e Expr) (Pred, error) {
	if e.Kind() != vtypes.KindBool {
		return nil, fmt.Errorf("expr: predicate expression must be boolean, got %v", e.Kind())
	}
	return &boolExprPred{e: e}, nil
}

// NewOr compiles a disjunction: every disjunct runs over the incoming
// live set and the rows any of them kept are selected.
func NewOr(preds ...Pred) Pred { return &boolExprPred{e: &predMap{preds: preds}} }

// NewNot compiles a negation: the complement of p within the live set.
func NewNot(p Pred) Pred { return &boolExprPred{e: NewPredMap(p), negate: true} }

// Filter implements Pred.
func (p *boolExprPred) Filter(b *vector.Batch) error {
	v, err := p.e.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	if p.negate {
		b.SetSel(res, primitives.SelFalse(res, v.B, b.Sel, b.N))
	} else {
		b.SetSel(res, primitives.SelTrue(res, v.B, b.Sel, b.N))
	}
	return nil
}

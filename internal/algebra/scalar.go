package algebra

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"vectorwise/internal/vtypes"
)

// Scalar is an engine-neutral scalar expression with a resolved kind.
type Scalar interface {
	Kind() vtypes.Kind
	String() string
}

// ColRef references an input column by position.
type ColRef struct {
	Idx int
	K   vtypes.Kind
}

// Kind implements Scalar.
func (c *ColRef) Kind() vtypes.Kind { return c.K }
func (c *ColRef) String() string    { return fmt.Sprintf("#%d", c.Idx) }

// Lit is a literal.
type Lit struct{ Val vtypes.Value }

// Kind implements Scalar.
func (l *Lit) Kind() vtypes.Kind { return l.Val.Kind }
func (l *Lit) String() string    { return l.Val.String() }

// Param is an unbound statement parameter (`?` / `$N` in SQL). The
// planner resolves K from the surrounding expression (a parameter
// compared with or added to a typed scalar adopts its kind), so a plan
// holding Params is a reusable template: BindParams substitutes typed
// literals without re-planning. A Param must not reach the
// cross-compiler unbound.
type Param struct {
	// Idx is the 1-based parameter ordinal.
	Idx int
	K   vtypes.Kind
}

// Kind implements Scalar.
func (p *Param) Kind() vtypes.Kind { return p.K }
func (p *Param) String() string    { return fmt.Sprintf("$%d", p.Idx) }

// ArithOp names a binary arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// Arith is binary arithmetic; K is resolved at construction.
type Arith struct {
	Op   ArithOp
	L, R Scalar
	K    vtypes.Kind
}

// NewArith builds l op r, of the kind ArithKind gives.
func NewArith(op ArithOp, l, r Scalar) (*Arith, error) {
	k, err := ArithKind(op, l.Kind(), r.Kind())
	if err != nil {
		return nil, err
	}
	return &Arith{Op: op, L: l, R: r, K: k}, nil
}

// ArithKind is the kind of lk op rk, whose operands are of one storage
// class (the planner settles them): DATE ± BIGINT is a DATE and
// DATE − DATE a BIGINT (days); otherwise both are BIGINT or both DOUBLE.
// The vectorized compiler types its kernels by it too.
func ArithKind(op ArithOp, lk, rk vtypes.Kind) (vtypes.Kind, error) {
	switch {
	case lk == vtypes.KindDate && rk == vtypes.KindDate && op == OpSub:
		return vtypes.KindI64, nil
	case lk == vtypes.KindDate && rk == vtypes.KindI64 && (op == OpAdd || op == OpSub):
		return lk, nil
	case lk != rk || !lk.Numeric():
		return vtypes.KindInvalid, fmt.Errorf("algebra: %v %v %v ill-typed", lk, op, rk)
	}
	return lk, nil
}

// Kind implements Scalar.
func (a *Arith) Kind() vtypes.Kind { return a.K }
func (a *Arith) String() string    { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

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

func (o CmpOp) String() string { return [...]string{"=", "<>", "<", "<=", ">", ">="}[o] }

// Flip returns the operator with its operands swapped (a < b ⇔ b > a).
func (o CmpOp) Flip() CmpOp { return [...]CmpOp{CmpEq, CmpNe, CmpGt, CmpGe, CmpLt, CmpLe}[o] }

// Negate returns the complement operator (NOT a < b ⇔ a >= b), which is
// the negation wherever the operands are totally ordered (see Negate).
func (o CmpOp) Negate() CmpOp { return [...]CmpOp{CmpNe, CmpEq, CmpGe, CmpGt, CmpLe, CmpLt}[o] }

// Cmp is a boolean comparison.
type Cmp struct {
	Op   CmpOp
	L, R Scalar
}

// Kind implements Scalar.
func (c *Cmp) Kind() vtypes.Kind { return vtypes.KindBool }
func (c *Cmp) String() string    { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

// Like is a SQL LIKE match.
type Like struct {
	In      Scalar
	Pattern string
	Negate  bool
}

// Kind implements Scalar.
func (l *Like) Kind() vtypes.Kind { return vtypes.KindBool }
func (l *Like) String() string {
	n := ""
	if l.Negate {
		n = " not"
	}
	return fmt.Sprintf("(%s%s like %q)", l.In, n, l.Pattern)
}

// In is membership in a literal list.
type In struct {
	In   Scalar
	List []vtypes.Value
}

// Kind implements Scalar.
func (i *In) Kind() vtypes.Kind { return vtypes.KindBool }
func (i *In) String() string {
	var parts []string
	for _, v := range i.List {
		parts = append(parts, v.String())
	}
	return fmt.Sprintf("(%s in [%s])", i.In, strings.Join(parts, ","))
}

// And is a conjunction.
type And struct{ Preds []Scalar }

// Kind implements Scalar.
func (a *And) Kind() vtypes.Kind { return vtypes.KindBool }
func (a *And) String() string {
	var parts []string
	for _, p := range a.Preds {
		parts = append(parts, p.String())
	}
	return "(" + strings.Join(parts, " and ") + ")"
}

// Or is a disjunction.
type Or struct{ Preds []Scalar }

// Kind implements Scalar.
func (o *Or) Kind() vtypes.Kind { return vtypes.KindBool }
func (o *Or) String() string {
	var parts []string
	for _, p := range o.Preds {
		parts = append(parts, p.String())
	}
	return "(" + strings.Join(parts, " or ") + ")"
}

// Negate returns NOT s in negation normal form: AND and OR by De Morgan,
// a comparison, LIKE or IS NULL as its complement, `x IN (l)` as the
// conjunction of `x <> m` over the members (a NULL member, like any
// comparison with NULL, is never true, so neither is the whole), a
// boolean literal flipped, and any other boolean (a column, a CASE) as
// `s = FALSE`. It is the planner's one rule for NOT, so no plan holds a
// negation for an engine to compute.
//
// A DOUBLE ordering comparison is written `s = FALSE` too: a NaN fails
// both `f < c` and `f >= c`, so there the complement is not the negation.
// With a NULL literal or a parameter (which may bind NULL) beside it, the
// complement is kept, because `s = FALSE` would hold where s is unknown.
func Negate(s Scalar) Scalar {
	switch t := s.(type) {
	case *And:
		return &Or{Preds: negateEach(t.Preds)}
	case *Or:
		return &And{Preds: negateEach(t.Preds)}
	case *Cmp:
		equality := t.Op == CmpEq || t.Op == CmpNe
		double := t.L.Kind() == vtypes.KindF64 || t.R.Kind() == vtypes.KindF64
		if equality || !double || mayBeNull(t.L) || mayBeNull(t.R) {
			return &Cmp{Op: t.Op.Negate(), L: t.L, R: t.R}
		}
	case *Like:
		return &Like{In: t.In, Pattern: t.Pattern, Negate: !t.Negate}
	case *IsNull:
		return &IsNull{In: t.In, Negate: !t.Negate}
	case *In:
		ne := make([]Scalar, len(t.List))
		for i, m := range t.List {
			ne[i] = &Cmp{Op: CmpNe, L: t.In, R: &Lit{Val: m}}
		}
		return &And{Preds: ne}
	case *Lit:
		if t.Val.Kind == vtypes.KindBool && !t.Val.Null {
			return &Lit{Val: vtypes.BoolValue(!t.Val.B)}
		}
	}
	return &Cmp{Op: CmpEq, L: s, R: &Lit{Val: vtypes.BoolValue(false)}}
}

func negateEach(ps []Scalar) []Scalar {
	out := make([]Scalar, len(ps))
	for i, p := range ps {
		out[i] = Negate(p)
	}
	return out
}

// mayBeNull reports whether s is a NULL literal or a parameter slot.
func mayBeNull(s Scalar) bool {
	switch t := s.(type) {
	case *Lit:
		return t.Val.Null
	case *Param:
		return true
	}
	return false
}

// Case is CASE WHEN cond THEN a ELSE b END.
type Case struct {
	Cond, Then, Else Scalar
	K                vtypes.Kind
}

// NewCase builds a CASE over a boolean condition and two arms of one
// kind (the planner's unify settles them).
func NewCase(cond, then, el Scalar) (*Case, error) {
	if cond.Kind() != vtypes.KindBool {
		return nil, fmt.Errorf("algebra: CASE condition must be boolean")
	}
	if then.Kind() != el.Kind() {
		return nil, fmt.Errorf("algebra: CASE arms disagree: %v vs %v", then.Kind(), el.Kind())
	}
	return &Case{Cond: cond, Then: then, Else: el, K: then.Kind()}, nil
}

// Kind implements Scalar.
func (c *Case) Kind() vtypes.Kind { return c.K }
func (c *Case) String() string {
	return fmt.Sprintf("(case when %s then %s else %s end)", c.Cond, c.Then, c.Else)
}

// YearOf extracts the year of a date.
type YearOf struct{ In Scalar }

// Kind implements Scalar.
func (y *YearOf) Kind() vtypes.Kind { return vtypes.KindI64 }
func (y *YearOf) String() string    { return fmt.Sprintf("year(%s)", y.In) }

// IsNull tests the NULL indicator of a nullable column. The rewriter's
// NULL decomposition replaces it with a reference to the indicator
// column before execution; engines that see it un-rewritten evaluate it
// via boxed values (the slow path experiment T5 measures).
type IsNull struct {
	In     Scalar
	Negate bool
}

// Kind implements Scalar.
func (i *IsNull) Kind() vtypes.Kind { return vtypes.KindBool }
func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s is not null)", i.In)
	}
	return fmt.Sprintf("(%s is null)", i.In)
}

// Cast converts numeric storage classes.
type Cast struct {
	In Scalar
	To vtypes.Kind
}

// Kind implements Scalar.
func (c *Cast) Kind() vtypes.Kind { return c.To }
func (c *Cast) String() string    { return fmt.Sprintf("cast(%s as %s)", c.In, c.To) }

// Operands returns s's operand expressions in order; a leaf has none.
func Operands(s Scalar) []Scalar {
	switch t := s.(type) {
	case *Arith:
		return []Scalar{t.L, t.R}
	case *Cmp:
		return []Scalar{t.L, t.R}
	case *And:
		return t.Preds
	case *Or:
		return t.Preds
	case *Case:
		return []Scalar{t.Cond, t.Then, t.Else}
	case *Like:
		return []Scalar{t.In}
	case *In:
		return []Scalar{t.In}
	case *YearOf:
		return []Scalar{t.In}
	case *IsNull:
		return []Scalar{t.In}
	case *Cast:
		return []Scalar{t.In}
	}
	return nil
}

// Equal reports whether a and b compute the same values: equal trees of
// equal node kinds, operators and result kinds, literals equal to the bit
// (-0.0 is not 0.0), Params of one slot and kind (every occurrence binds
// the same value). Equal(nil, nil) holds (COUNT(*)'s argument). It is the
// planner's one test of "the same expression".
func Equal(a, b Scalar) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if reflect.TypeOf(a) != reflect.TypeOf(b) || a.Kind() != b.Kind() || !slices.EqualFunc(Operands(a), Operands(b), Equal) {
		return false
	}
	switch x := a.(type) {
	case *ColRef:
		return x.Idx == b.(*ColRef).Idx
	case *Param:
		return x.Idx == b.(*Param).Idx
	case *Lit:
		return sameValue(x.Val, b.(*Lit).Val)
	case *Arith:
		return x.Op == b.(*Arith).Op
	case *Cmp:
		return x.Op == b.(*Cmp).Op
	case *Like:
		return x.Pattern == b.(*Like).Pattern && x.Negate == b.(*Like).Negate
	case *In:
		return slices.EqualFunc(x.List, b.(*In).List, sameValue)
	case *IsNull:
		return x.Negate == b.(*IsNull).Negate
	case *And, *Or, *Case, *YearOf, *Cast:
		return true // all they hold is their operands and kind
	}
	return false // a kind Equal does not know
}

// sameValue compares two literal values, a DOUBLE by its bits as well (so
// a NaN equals no literal).
func sameValue(a, b vtypes.Value) bool {
	return a == b && math.Float64bits(a.F64) == math.Float64bits(b.F64)
}

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

// Known returns the predicate that is TRUE exactly where SQL's three-
// valued p is TRUE, over an input of schema in. It is the one NULL rule
// for predicates. It is written with NULL-oblivious operations and column
// IS NULL only, so an engine that evaluates each atom on the safe value
// under a NULL (zero, "", FALSE) and AND and OR two-valued evaluates it
// exactly; no kernel sees a NULL. Writing T for Known and ind(e) for the
// predicate that is TRUE where e is NULL:
//
//   - An atom (a comparison, LIKE, IN, a boolean column or CASE) is
//     `atom AND NOT ind(atom)`. Every operator that sits under an atom
//     (arithmetic, cast, YEAR, comparison, LIKE, IN) is strict, so ind is
//     the OR of its operands' indicators. A nullable column's is
//     `col IS NULL`. A NULL literal's is TRUE, so its atom folds to FALSE.
//     An IN list drops its NULL members, which match nothing.
//   - A CASE's ind is `(T(c) AND ind(a)) OR (NOT T(c) AND ind(b))`, and an
//     AND's or OR's is `NOT T(p) AND NOT T(NOT p)`.
//   - A conjunction keeps its atoms in place and appends their guards,
//     the conjuncts of each NOT ind, once each after them: a column's
//     `col IS NOT NULL` once however many atoms read it. So the positions
//     ReadConjunction reports still name the same conjuncts. A disjunction
//     is the disjunction of its disjuncts' T.
//   - `e IS [NOT] NULL` is ind(e) or its negation. A column's is kept.
//
// Where nothing in p can be NULL, Known returns p itself and allocates
// nothing. The plan keeps p: the Skip, range fusion's intervals and the
// estimator read its unguarded conjuncts. The vectorized and materialized
// engines apply Known wherever a boolean decides rows or picks a CASE arm;
// the tuple engine never does, and evaluates SQL's three-valued logic
// itself, so it stays an independent oracle.
func Known(p Scalar, in *vtypes.Schema) Scalar {
	if !unknown(p, in) {
		return p
	}
	switch t := p.(type) {
	case *And:
		return knownAnd(t.Preds, in)
	case *Or:
		out := make([]Scalar, len(t.Preds))
		for i, q := range t.Preds {
			out[i] = Known(q, in)
		}
		return &Or{Preds: out}
	case *IsNull:
		ind := indicator(t.In, in)
		if ind == nil {
			ind = &Lit{Val: vtypes.BoolValue(false)}
		}
		if t.Negate {
			return Negate(ind)
		}
		return ind
	}
	return knownAnd([]Scalar{p}, in)
}

// knownAnd is T of the conjunction of conj: each atom in place, and the
// conjuncts of each atom's NOT ind after them, each once (AND is
// commutative where nothing is unknown). One conjunct without a guard is
// itself.
func knownAnd(conj []Scalar, in *vtypes.Schema) Scalar {
	out := make([]Scalar, len(conj))
	var guards []Scalar
	for i, q := range conj {
		switch t := q.(type) {
		case *And, *Or, *IsNull:
			out[i] = Known(q, in)
			continue
		case *In:
			if slices.ContainsFunc(t.List, isNullValue) {
				q = withoutNulls(t)
			}
		}
		out[i] = q
		switch ind := indicator(q, in); {
		case ind == nil:
		case isTrue(ind):
			out[i] = &Lit{Val: vtypes.BoolValue(false)}
		default:
			guards = appendNew(guards, conjunctsOf(Negate(ind))...)
		}
	}
	out = append(out, guards...)
	if len(out) == 1 {
		return out[0]
	}
	return &And{Preds: out}
}

// unknown reports whether Known must rewrite s: whether s holds a
// nullable column other than under a column's IS NULL, a NULL literal,
// an IN list with a NULL member, or an IS NULL of a computed value. It
// allocates nothing.
func unknown(s Scalar, in *vtypes.Schema) bool {
	switch t := s.(type) {
	case *ColRef:
		return in.Cols[t.Idx].Nullable
	case *Lit:
		return t.Val.Null
	case *IsNull:
		_, col := t.In.(*ColRef)
		return !col
	case *Arith:
		return unknown(t.L, in) || unknown(t.R, in)
	case *Cmp:
		return unknown(t.L, in) || unknown(t.R, in)
	case *Case:
		return unknown(t.Cond, in) || unknown(t.Then, in) || unknown(t.Else, in)
	case *And:
		return anyUnknown(t.Preds, in)
	case *Or:
		return anyUnknown(t.Preds, in)
	case *Like:
		return unknown(t.In, in)
	case *In:
		return unknown(t.In, in) || slices.ContainsFunc(t.List, isNullValue)
	case *YearOf:
		return unknown(t.In, in)
	case *Cast:
		return unknown(t.In, in)
	}
	return false
}

func anyUnknown(ss []Scalar, in *vtypes.Schema) bool {
	for _, s := range ss {
		if unknown(s, in) {
			return true
		}
	}
	return false
}

// indicator is ind(e): the predicate TRUE where e is NULL, nil where e is
// never NULL.
func indicator(e Scalar, in *vtypes.Schema) Scalar {
	if !unknown(e, in) {
		return nil
	}
	switch t := e.(type) {
	case *ColRef:
		return &IsNull{In: t}
	case *Lit:
		return &Lit{Val: vtypes.BoolValue(true)}
	case *IsNull:
		return nil
	case *And, *Or:
		return boolIndicator(e, in)
	case *In:
		if slices.ContainsFunc(t.List, isNullValue) {
			return boolIndicator(e, in)
		}
	case *Case:
		c := Known(t.Cond, in)
		return or(and(c, indicator(t.Then, in)), and(Negate(c), indicator(t.Else, in)))
	}
	var ind Scalar
	for _, o := range Operands(e) {
		ind = or(ind, indicator(o, in))
	}
	return ind
}

// boolIndicator is ind(p) of a boolean p that is not strict in its
// operands: p is NULL where neither p nor NOT p is TRUE.
func boolIndicator(p Scalar, in *vtypes.Schema) Scalar {
	return &And{Preds: []Scalar{Negate(Known(p, in)), Negate(Known(Negate(p), in))}}
}

// or is a OR b, where nil is never TRUE and TRUE absorbs: the disjuncts
// flattened, a column's IS NULL once.
func or(a, b Scalar) Scalar {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case isTrue(a):
		return a
	case isTrue(b):
		return b
	}
	out := appendNew(disjuncts(a), disjuncts(b)...)
	if len(out) == 1 {
		return out[0]
	}
	return &Or{Preds: out}
}

// and is a AND b, where nil is never TRUE.
func and(a, b Scalar) Scalar {
	if a == nil || b == nil {
		return nil
	}
	return &And{Preds: []Scalar{a, b}}
}

// disjuncts returns an OR's disjuncts, a copy, or s alone.
func disjuncts(s Scalar) []Scalar {
	if o, ok := s.(*Or); ok {
		return slices.Clone(o.Preds)
	}
	return []Scalar{s}
}

// conjunctsOf returns an AND's conjuncts or s alone.
func conjunctsOf(s Scalar) []Scalar {
	if a, ok := s.(*And); ok {
		return a.Preds
	}
	return []Scalar{s}
}

// appendNew appends to list each of ss that Equal finds in it nowhere.
func appendNew(list []Scalar, ss ...Scalar) []Scalar {
	for _, s := range ss {
		if !slices.ContainsFunc(list, func(l Scalar) bool { return Equal(l, s) }) {
			list = append(list, s)
		}
	}
	return list
}

// withoutNulls is an IN list without its NULL members; with none left it
// is FALSE.
func withoutNulls(t *In) Scalar {
	list := slices.DeleteFunc(slices.Clone(t.List), isNullValue)
	if len(list) == 0 {
		return &Lit{Val: vtypes.BoolValue(false)}
	}
	return &In{In: t.In, List: list}
}

func isNullValue(v vtypes.Value) bool { return v.Null }

func isTrue(s Scalar) bool {
	l, ok := s.(*Lit)
	return ok && l.Val.Kind == vtypes.KindBool && !l.Val.Null && l.Val.B
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

// IsNull is `In IS [NOT] NULL`, which is never NULL itself. Over a column
// it reads the column's NULL indicator, a vector beside the values; over
// any other expression Known rewrites it into its operands' column
// indicators, so the vectorized and materialized engines only ever read
// a column's. The tuple engine tests the boxed value's Null.
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

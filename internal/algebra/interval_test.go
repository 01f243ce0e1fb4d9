package algebra

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vectorwise/internal/vtypes"
)

// intervalDomain is one column class of TestIntervalSoundAndNoWeaker: the
// literals its constraints and statistics draw from, and the values
// between which satisfaction can change, so that checking those finds a
// satisfying value in [min, max] whenever one exists.
type intervalDomain struct {
	kind  vtypes.Kind
	pool  []vtypes.Value
	other []vtypes.Value // literals of another class: never constraints
	// near returns v and its neighbours: the values just inside an open
	// end at v, and the first value past an excluded point v.
	near func(v vtypes.Value) []vtypes.Value
}

func intervalDomains() []intervalDomain {
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -3, -2, -1, 0, 1, 2, 3, math.MaxInt64 - 1, math.MaxInt64}
	intNear := func(v vtypes.Value) []vtypes.Value {
		out := []vtypes.Value{v}
		if v.I64 != math.MinInt64 {
			out = append(out, vtypes.Value{Kind: v.Kind, I64: v.I64 - 1})
		}
		if v.I64 != math.MaxInt64 {
			out = append(out, vtypes.Value{Kind: v.Kind, I64: v.I64 + 1})
		}
		return out
	}
	var bigints, dates []vtypes.Value
	for _, n := range ints {
		bigints = append(bigints, vtypes.I64Value(n))
		dates = append(dates, vtypes.DateValue(n))
	}
	var doubles []vtypes.Value
	for _, f := range []float64{math.Inf(-1), -2.5, -1, math.Copysign(0, -1), 0, 0.5, 1, 2.5, math.Inf(1)} {
		doubles = append(doubles, vtypes.F64Value(f))
	}
	var strs []vtypes.Value
	for _, s := range []string{"", "a", "a\x00", "ab", "b", "ba", "c"} {
		strs = append(strs, vtypes.StrValue(s))
	}
	return []intervalDomain{
		{vtypes.KindI64, bigints, []vtypes.Value{vtypes.F64Value(0.5), vtypes.F64Value(2)}, intNear},
		{vtypes.KindDate, dates, []vtypes.Value{vtypes.F64Value(-1.5)}, intNear},
		{vtypes.KindF64, doubles, []vtypes.Value{vtypes.I64Value(1), vtypes.F64Value(math.NaN())},
			func(v vtypes.Value) []vtypes.Value {
				return []vtypes.Value{v, vtypes.F64Value(math.Nextafter(v.F64, math.Inf(-1))), vtypes.F64Value(math.Nextafter(v.F64, math.Inf(1)))}
			}},
		{vtypes.KindStr, strs, nil, func(v vtypes.Value) []vtypes.Value {
			// s+"\x00" is the least string above s.
			return []vtypes.Value{v, vtypes.StrValue(v.Str + "\x00")}
		}},
	}
}

// satisfies evaluates conjunct s on the non-NULL column value v by SQL's
// rules: a NULL operand is never true, mixed numeric classes compare as
// DOUBLE, and a NaN compares unequal to everything.
func satisfies(s Scalar, v vtypes.Value) bool {
	cmpv := func(a, b vtypes.Value) (c int, ok bool) {
		switch {
		case a.Null || b.Null:
			return 0, false
		case a.Kind.StorageClass() == vtypes.ClassStr:
			return a.Compare(b), true
		case a.Kind.StorageClass() == vtypes.ClassI64 && b.Kind.StorageClass() == vtypes.ClassI64:
			return a.Compare(b), true
		}
		x, y := a.AsFloat(), b.AsFloat()
		switch {
		case x != x || y != y:
			return 2, true // unordered: only <> holds
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		}
		return 0, true
	}
	switch t := s.(type) {
	case *Cmp:
		var a, b vtypes.Value
		if _, ok := t.L.(*ColRef); ok {
			a, b = v, t.R.(*Lit).Val
		} else {
			a, b = t.L.(*Lit).Val, v
		}
		c, ok := cmpv(a, b)
		if !ok {
			return false
		}
		if c == 2 {
			return t.Op == CmpNe
		}
		return [...]bool{c == 0, c != 0, c < 0, c <= 0, c > 0, c >= 0}[t.Op]
	case *In:
		for _, m := range t.List {
			if c, ok := cmpv(v, m); ok && c == 0 {
				return true
			}
		}
	}
	return false
}

// parentRefutes is the pruner's rule before conjuncts were read as
// intervals, one conjunct at a time: a literal of the column's class is
// placed against min and max, and a NULL literal refutes every group.
// It trusts NaN, which the callers exclude.
func parentRefutes(s Scalar, min, max vtypes.Value) bool {
	place := func(lit vtypes.Value) (vsMin, vsMax int, ok bool) {
		if lit.Kind.StorageClass() != min.Kind.StorageClass() {
			return 0, 0, false
		}
		return lit.Compare(min), lit.Compare(max), true
	}
	switch t := s.(type) {
	case *Cmp:
		op, lit := t.Op, t.R
		if _, ok := lit.(*Lit); !ok {
			op, lit = op.Flip(), t.L
		}
		v := lit.(*Lit).Val
		if v.Null {
			return true
		}
		vsMin, vsMax, ok := place(v)
		if !ok {
			return false
		}
		switch op {
		case CmpEq:
			return vsMin < 0 || vsMax > 0
		case CmpNe:
			return vsMin == 0 && vsMax == 0
		case CmpLt:
			return vsMin <= 0
		case CmpLe:
			return vsMin < 0
		case CmpGt:
			return vsMax >= 0
		default:
			return vsMax > 0
		}
	case *In:
		for _, v := range t.List {
			if v.Null {
				continue
			}
			vsMin, vsMax, ok := place(v)
			if !ok || vsMin >= 0 && vsMax <= 0 {
				return false
			}
		}
		return true
	}
	return false
}

func hasNaN(s Scalar) bool {
	nan := func(v vtypes.Value) bool { return v.Kind == vtypes.KindF64 && math.IsNaN(v.F64) }
	switch t := s.(type) {
	case *Cmp:
		if l, ok := t.R.(*Lit); ok && nan(l.Val) {
			return true
		}
		l, ok := t.L.(*Lit)
		return ok && nan(l.Val)
	case *In:
		for _, v := range t.List {
			if nan(v) {
				return true
			}
		}
	}
	return false
}

// TestIntervalSoundAndNoWeaker reads random conjunct lists on one column
// with ReadConjunction, which intersects every conjunct of known value
// and only those; a BETWEEN is its pair of bounds. A refutation of [min, max] must leave no value
// there that satisfies every conjunct (checked on the values between
// which satisfaction changes), and every group one conjunct refuted by
// the parent's rule must still be refuted. NaN statistics refute nothing.
func TestIntervalSoundAndNoWeaker(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	refuted, satisfied := 0, 0
	for _, d := range intervalDomains() {
		col := &ColRef{Idx: 0, K: d.kind}
		lit := func() vtypes.Value {
			switch r := rng.Intn(12); {
			case r == 0:
				return vtypes.NullValue(d.kind)
			case r == 1 && d.other != nil:
				return d.other[rng.Intn(len(d.other))]
			}
			return d.pool[rng.Intn(len(d.pool))]
		}
		conjuncts := func() []Scalar {
			switch rng.Intn(5) {
			case 0:
				return []Scalar{&Cmp{Op: CmpGe, L: col, R: &Lit{Val: lit()}}, &Cmp{Op: CmpLe, L: col, R: &Lit{Val: lit()}}}
			case 1:
				list := make([]vtypes.Value, 1+rng.Intn(3))
				for i := range list {
					list[i] = lit()
				}
				return []Scalar{&In{In: col, List: list}}
			}
			c := &Cmp{Op: CmpOp(rng.Intn(6)), L: col, R: &Lit{Val: lit()}}
			if rng.Intn(2) == 0 {
				c.L, c.R = c.R, c.L
			}
			return []Scalar{c}
		}
		for iter := 0; iter < 6000; iter++ {
			var conj []Scalar
			for range 1 + rng.Intn(4) {
				conj = append(conj, conjuncts()...)
			}
			var known []int
			for i := range conj {
				jv, ok := ReadInterval(conj[i])
				if !ok {
					t.Fatalf("%v: not read", conj[i])
				}
				if !jv.Unknown {
					known = append(known, i)
				}
			}
			iv := Interval{Unknown: true} // refutes nothing
			switch ivs := ReadConjunction(conj); {
			case len(ivs) == 1 && slices.Equal(ivs[0].Conj, known):
				iv = ivs[0].Interval
			case len(ivs) != 0 || known != nil:
				t.Fatalf("%v: read as %+v, want one interval over conjuncts %v", conj, ivs, known)
			}
			min, max := d.pool[rng.Intn(len(d.pool))], d.pool[rng.Intn(len(d.pool))]
			if min.Compare(max) > 0 {
				min, max = max, min
			}
			if !iv.Refutes(&min, &max) {
				for _, s := range conj {
					if !hasNaN(s) && parentRefutes(s, min, max) {
						t.Fatalf("%v on [%v, %v]: the parent refuted it by %v, the intersection %+v does not", conj, min, max, s, iv)
					}
				}
				continue
			}
			refuted++
			for _, p := range append(append(d.near(min), d.near(max)...), nearAll(d, conj)...) {
				if p.Compare(min) < 0 || p.Compare(max) > 0 {
					continue
				}
				all := true
				for _, s := range conj {
					all = all && satisfies(s, p)
				}
				if all {
					t.Fatalf("%v on [%v, %v]: refuted, but %v satisfies it", conj, min, max, p)
				}
				satisfied++
			}
		}
		if d.kind == vtypes.KindF64 {
			nan := vtypes.F64Value(math.NaN())
			for _, s := range []Scalar{
				&Cmp{Op: CmpLt, L: col, R: &Lit{Val: vtypes.F64Value(5)}},
				&Cmp{Op: CmpNe, L: col, R: &Lit{Val: vtypes.F64Value(5)}},
				&In{In: col, List: []vtypes.Value{vtypes.F64Value(1)}},
			} {
				iv, _ := ReadInterval(s)
				zero, nine := vtypes.F64Value(0), vtypes.F64Value(9)
				if iv.Refutes(&nan, &nan) || iv.Refutes(&nan, &zero) || iv.Refutes(&nine, &nan) {
					t.Errorf("%v refutes a group whose statistics hold NaN", s)
				}
			}
		}
	}
	if refuted < 1000 || satisfied < 1000 {
		t.Fatalf("only %d refutations over %d checked values", refuted, satisfied)
	}
}

// nearAll returns the neighbourhoods of every literal in conj.
func nearAll(d intervalDomain, conj []Scalar) []vtypes.Value {
	var out []vtypes.Value
	add := func(v vtypes.Value) {
		if !v.Null && v.Kind.StorageClass() == d.kind.StorageClass() {
			out = append(out, d.near(v)...)
		}
	}
	for _, s := range conj {
		switch t := s.(type) {
		case *Cmp:
			for _, x := range []Scalar{t.L, t.R} {
				if l, ok := x.(*Lit); ok {
					add(l.Val)
				}
			}
		case *In:
			for _, v := range t.List {
				add(v)
			}
		}
	}
	return out
}

// TestReadInterval pins how single conjuncts read: orientation, the
// BIGINT step at strict ends and its overflow guard, and the shapes that
// are accepted but bound nothing.
func TestReadInterval(t *testing.T) {
	x := &ColRef{Idx: 2, K: vtypes.KindI64}
	f := &ColRef{Idx: 3, K: vtypes.KindF64}
	i64 := func(n int64) *Lit { return &Lit{Val: vtypes.I64Value(n)} }
	closed := func(n int64) Bound { return Bound{Val: vtypes.I64Value(n), Set: true} }
	for _, c := range []struct {
		s      Scalar
		lo, hi Bound
	}{
		{&Cmp{Op: CmpGt, L: x, R: i64(5)}, closed(6), Bound{}},
		{&Cmp{Op: CmpGt, L: i64(5), R: x}, Bound{}, closed(4)},
		{&Cmp{Op: CmpLe, L: i64(5), R: x}, closed(5), Bound{}},
		{&Cmp{Op: CmpEq, L: i64(5), R: x}, closed(5), closed(5)},
		{&Cmp{Op: CmpGt, L: x, R: i64(math.MaxInt64)}, Bound{Val: vtypes.I64Value(math.MaxInt64), Set: true, Open: true}, Bound{}},
		{&Cmp{Op: CmpLt, L: x, R: i64(math.MinInt64)}, Bound{}, Bound{Val: vtypes.I64Value(math.MinInt64), Set: true, Open: true}},
	} {
		iv, ok := ReadInterval(c.s)
		if !ok || iv.Col != x || iv.Lo != c.lo || iv.Hi != c.hi || iv.Unknown || iv.In != nil {
			t.Errorf("%v read as %+v, want [%+v, %+v]", c.s, iv, c.lo, c.hi)
		}
	}
	for _, s := range []Scalar{
		&Cmp{Op: CmpLt, L: x, R: &Param{Idx: 1, K: vtypes.KindI64}},
		&Cmp{Op: CmpLt, L: x, R: &Lit{Val: vtypes.F64Value(5.5)}},
		&Cmp{Op: CmpLt, L: f, R: i64(5)},
		&Cmp{Op: CmpNe, L: f, R: &Lit{Val: vtypes.F64Value(math.NaN())}},
		&In{In: x, List: []vtypes.Value{vtypes.I64Value(1), vtypes.F64Value(2)}},
	} {
		if iv, ok := ReadInterval(s); !ok || !iv.Unknown {
			t.Errorf("%v read as %+v, want a constraint of unknown value", s, iv)
		}
	}
	whole := [2]vtypes.Value{vtypes.I64Value(math.MinInt64), vtypes.I64Value(math.MaxInt64)}
	for _, conj := range [][]Scalar{
		{&Cmp{Op: CmpLt, L: x, R: &Lit{Val: vtypes.NullValue(vtypes.KindI64)}}},
		{&Cmp{Op: CmpGe, L: x, R: i64(1)}, &Cmp{Op: CmpLe, L: x, R: &Lit{Val: vtypes.NullValue(vtypes.KindI64)}}},
		{&In{In: x, List: []vtypes.Value{vtypes.NullValue(vtypes.KindI64)}}},
	} {
		if ivs := ReadConjunction(conj); len(ivs) != 1 || len(ivs[0].Conj) != len(conj) || !ivs[0].Refutes(&whole[0], &whole[1]) {
			t.Errorf("%v read as %+v, want never true", conj, ivs)
		}
	}
	for _, s := range []Scalar{
		&Cmp{Op: CmpLt, L: x, R: f},
		&Cmp{Op: CmpLt, L: i64(1), R: i64(2)},
		&Cmp{Op: CmpEq, L: &ColRef{Idx: 0, K: vtypes.KindBool}, R: &Lit{Val: vtypes.BoolValue(true)}},
		&Like{In: x, Pattern: "a%"},
		&IsNull{In: x},
	} {
		if _, ok := ReadInterval(s); ok {
			t.Errorf("%v read as a constraint", s)
		}
	}
}

// TestReadConjunction: a conjunction reads as one interval a column, in
// the order of each column's first conjunct, with the positions of the
// conjuncts it covers; a conjunct of unknown value or one that is no
// constraint belongs to no column.
func TestReadConjunction(t *testing.T) {
	x, y := &ColRef{Idx: 2, K: vtypes.KindI64}, &ColRef{Idx: 0, K: vtypes.KindF64}
	i64 := func(n int64) *Lit { return &Lit{Val: vtypes.I64Value(n)} }
	f64 := func(f float64) *Lit { return &Lit{Val: vtypes.F64Value(f)} }
	conj := []Scalar{
		&Cmp{Op: CmpLe, L: y, R: f64(0.07)},                          // 0: y
		&Cmp{Op: CmpGt, L: x, R: i64(1)},                             // 1: x
		&Cmp{Op: CmpLt, L: x, R: &Param{Idx: 0, K: vtypes.KindI64}},  // unknown
		&Like{In: &ColRef{Idx: 1, K: vtypes.KindStr}, Pattern: "a%"}, // no constraint
		&Cmp{Op: CmpGe, L: f64(0.05), R: y},                          // 4: y, flipped
		&Cmp{Op: CmpLe, L: x, R: i64(9)},                             // 5: x
		&Cmp{Op: CmpGe, L: y, R: f64(0.05)},                          // 6: y
		&Cmp{Op: CmpNe, L: x, R: i64(4)},                             // 7: x
	}
	ivs := ReadConjunction(conj)
	if len(ivs) != 2 || ivs[0].Col != y || ivs[1].Col != x {
		t.Fatalf("read %+v, want y's interval, then x's", ivs)
	}
	closed := func(v vtypes.Value) Bound { return Bound{Val: v, Set: true} }
	if y := ivs[0]; !slices.Equal(y.Conj, []int{0, 4, 6}) || y.Lo != closed(vtypes.F64Value(0.05)) || y.Hi != closed(vtypes.F64Value(0.05)) {
		t.Errorf("y reads as %+v, want [0.05, 0.05] over conjuncts 0, 4 and 6", y)
	}
	if x := ivs[1]; !slices.Equal(x.Conj, []int{1, 5, 7}) || x.Lo != closed(vtypes.I64Value(2)) || x.Hi != closed(vtypes.I64Value(9)) || len(x.Ne) != 1 {
		t.Errorf("x reads as %+v, want [2, 9] without 4 over conjuncts 1, 5 and 7", x)
	}
	if ivs := ReadConjunction(conj[2:4]); ivs != nil {
		t.Errorf("an unknown bound and a LIKE read as %+v", ivs)
	}
}

package tupleengine

import (
	"fmt"
	"sort"
	"unicode/utf8"

	"vectorwise/internal/algebra"
	"vectorwise/internal/hashtable"
	"vectorwise/internal/vtypes"
)

// selectIter filters one row at a time.
type selectIter struct {
	child RowIter
	pred  algebra.Scalar
}

func (s *selectIter) Open() error  { return s.child.Open() }
func (s *selectIter) Close() error { return s.child.Close() }

func (s *selectIter) Next() (vtypes.Row, bool, error) {
	for {
		row, ok, err := s.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := EvalRow(s.pred, row)
		if err != nil {
			return nil, false, err
		}
		if !v.Null && v.B {
			return row, true, nil
		}
	}
}

// projectIter computes expressions per row.
type projectIter struct {
	child RowIter
	exprs []algebra.Scalar
}

func (p *projectIter) Open() error  { return p.child.Open() }
func (p *projectIter) Close() error { return p.child.Close() }

func (p *projectIter) Next() (vtypes.Row, bool, error) {
	row, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(vtypes.Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := EvalRow(e, row)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

// aggIter hashes groups row by row through the shared open-addressing
// table (scalar Put per row; the vectorized engine batches the same
// structure).
type aggIter struct {
	child RowIter
	node  *algebra.AggNode

	ht    *hashtable.Table
	order []*aggGroup
	pos   int
	built bool
}

type aggGroup struct {
	key  vtypes.Row
	sums []float64
	is   []int64
	cnts []int64
	mins []vtypes.Value
	maxs []vtypes.Value
}

func (a *aggIter) Open() error {
	a.ht = hashtable.New(0)
	a.order = nil
	a.pos = 0
	a.built = false
	return a.child.Open()
}
func (a *aggIter) Close() error { return a.child.Close() }

func (a *aggIter) consume() error {
	n := a.node
	for {
		row, ok, err := a.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		key := make(vtypes.Row, len(n.GroupBy))
		for i, g := range n.GroupBy {
			v, err := EvalRow(g, row)
			if err != nil {
				return err
			}
			key[i] = v
		}
		h := key.Hash()
		gid, _ := a.ht.Put(h, func(v uint32) bool {
			cand := a.order[v]
			for i := range key {
				if !cand.key[i].Equal(key[i]) {
					return false
				}
			}
			return true
		}, func() uint32 {
			a.order = append(a.order, &aggGroup{
				key:  key,
				sums: make([]float64, len(n.Aggs)),
				is:   make([]int64, len(n.Aggs)),
				cnts: make([]int64, len(n.Aggs)),
				mins: make([]vtypes.Value, len(n.Aggs)),
				maxs: make([]vtypes.Value, len(n.Aggs)),
			})
			return uint32(len(a.order) - 1)
		})
		grp := a.order[gid]
		for i, ag := range n.Aggs {
			var v vtypes.Value
			if ag.Arg != nil {
				v, err = EvalRow(ag.Arg, row)
				if err != nil {
					return err
				}
				if v.Null {
					continue // aggregates skip NULL arguments
				}
			}
			switch ag.Fn {
			case algebra.AggCountStar, algebra.AggCount:
				grp.cnts[i]++
			case algebra.AggSum:
				if v.Kind.StorageClass() == vtypes.ClassF64 {
					grp.sums[i] += v.F64
				} else {
					grp.is[i] += v.I64
				}
			case algebra.AggMin:
				if grp.cnts[i] == 0 || v.Compare(grp.mins[i]) < 0 {
					grp.mins[i] = v
				}
				grp.cnts[i]++
			case algebra.AggMax:
				if grp.cnts[i] == 0 || v.Compare(grp.maxs[i]) > 0 {
					grp.maxs[i] = v
				}
				grp.cnts[i]++
			}
		}
	}
	// Ungrouped aggregation over empty input yields one zero row, like
	// the vectorized engine — unless this is a parallel partial, whose
	// empty partitions must contribute nothing to the recombination.
	if len(n.GroupBy) == 0 && len(a.order) == 0 && !n.Partial {
		a.order = append(a.order, &aggGroup{
			key:  vtypes.Row{},
			sums: make([]float64, len(n.Aggs)),
			is:   make([]int64, len(n.Aggs)),
			cnts: make([]int64, len(n.Aggs)),
			mins: make([]vtypes.Value, len(n.Aggs)),
			maxs: make([]vtypes.Value, len(n.Aggs)),
		})
	}
	return nil
}

func (a *aggIter) Next() (vtypes.Row, bool, error) {
	if !a.built {
		if err := a.consume(); err != nil {
			return nil, false, err
		}
		a.built = true
	}
	if a.pos >= len(a.order) {
		return nil, false, nil
	}
	grp := a.order[a.pos]
	a.pos++
	n := a.node
	out := make(vtypes.Row, 0, len(n.GroupBy)+len(n.Aggs))
	out = append(out, grp.key...)
	for i, ag := range n.Aggs {
		switch ag.Fn {
		case algebra.AggCountStar, algebra.AggCount:
			out = append(out, vtypes.I64Value(grp.cnts[i]))
		case algebra.AggSum:
			if ag.Arg.Kind().StorageClass() == vtypes.ClassF64 {
				out = append(out, vtypes.F64Value(grp.sums[i]))
			} else {
				out = append(out, vtypes.I64Value(grp.is[i]))
			}
		case algebra.AggMin, algebra.AggMax:
			v := grp.mins[i]
			if ag.Fn == algebra.AggMax {
				v = grp.maxs[i]
			}
			if grp.cnts[i] == 0 { // no non-NULL argument: the group's rows, or no rows at all
				v = vtypes.NullValue(ag.Kind())
			}
			out = append(out, v)
		}
	}
	return out, true, nil
}

// joinIter hash-joins with a materialized build side. The shared
// open-addressing table maps key hashes to distinct-key ids; rows
// sharing a key collect under that id in build order.
type joinIter struct {
	left, right RowIter
	node        *algebra.JoinNode

	ht    *hashtable.Table
	keys  []vtypes.Row   // per distinct key: representative key row
	rows  [][]vtypes.Row // per distinct key: build rows in arrival order
	built bool

	// current probe fan-out
	pending []vtypes.Row
}

func (j *joinIter) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	return j.right.Open()
}

func (j *joinIter) Close() error {
	if err := j.left.Close(); err != nil {
		j.right.Close()
		return err
	}
	return j.right.Close()
}

func (j *joinIter) build() error {
	j.ht = hashtable.New(0)
	j.keys, j.rows = nil, nil
	for {
		row, ok, err := j.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		key, err := evalKeys(j.node.RightKeys, row)
		if err != nil {
			return err
		}
		if hasNull(key) {
			continue // a NULL key never matches
		}
		kid, _ := j.ht.Put(key.Hash(), func(v uint32) bool {
			return rowsEqual(j.keys[v], key)
		}, func() uint32 {
			j.keys = append(j.keys, key)
			j.rows = append(j.rows, nil)
			return uint32(len(j.keys) - 1)
		})
		j.rows[kid] = append(j.rows[kid], row)
	}
}

// hasNull reports whether any value of a key row is NULL.
func hasNull(key vtypes.Row) bool {
	for _, v := range key {
		if v.Null {
			return true
		}
	}
	return false
}

// rowsEqual compares two key rows element-wise.
func rowsEqual(a, b vtypes.Row) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func evalKeys(keys []algebra.Scalar, row vtypes.Row) (vtypes.Row, error) {
	out := make(vtypes.Row, len(keys))
	for i, k := range keys {
		v, err := EvalRow(k, row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (j *joinIter) Next() (vtypes.Row, bool, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, false, err
		}
		j.built = true
	}
	for {
		if len(j.pending) > 0 {
			out := j.pending[0]
			j.pending = j.pending[1:]
			return out, true, nil
		}
		row, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		key, err := evalKeys(j.node.LeftKeys, row)
		if err != nil {
			return nil, false, err
		}
		var kid uint32
		matched := false
		if !hasNull(key) {
			kid, matched = j.ht.Get(key.Hash(), func(v uint32) bool {
				return rowsEqual(j.keys[v], key)
			})
		}
		if matched {
			switch j.node.Type {
			case algebra.JoinInner, algebra.JoinLeftOuter:
				for _, cand := range j.rows[kid] {
					j.pending = append(j.pending, append(row.Clone(), cand...))
				}
			case algebra.JoinLeftSemi:
				j.pending = append(j.pending, row)
			case algebra.JoinLeftAnti:
			}
		}
		if !matched {
			switch j.node.Type {
			case algebra.JoinLeftAnti:
				j.pending = append(j.pending, row)
			case algebra.JoinLeftOuter:
				out := row.Clone()
				for _, c := range j.node.Right.Schema().Cols {
					out = append(out, vtypes.NullValue(c.Kind))
				}
				j.pending = append(j.pending, out)
			}
		}
	}
}

// sortIter materializes and sorts.
type sortIter struct {
	child RowIter
	keys  []algebra.SortKey
	rows  []vtypes.Row
	pos   int
	built bool
}

func (s *sortIter) Open() error  { s.rows, s.pos, s.built = nil, 0, false; return s.child.Open() }
func (s *sortIter) Close() error { return s.child.Close() }

func (s *sortIter) Next() (vtypes.Row, bool, error) {
	if !s.built {
		type keyed struct {
			row  vtypes.Row
			keys vtypes.Row
		}
		var all []keyed
		for {
			row, ok, err := s.child.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			ks := make(vtypes.Row, len(s.keys))
			for i, k := range s.keys {
				v, err := EvalRow(k.Expr, row)
				if err != nil {
					return nil, false, err
				}
				ks[i] = v
			}
			all = append(all, keyed{row: row, keys: ks})
		}
		sort.SliceStable(all, func(a, b int) bool {
			for i, k := range s.keys {
				cmp := all[a].keys[i].Compare(all[b].keys[i])
				if cmp == 0 {
					continue
				}
				if k.Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
		s.rows = make([]vtypes.Row, len(all))
		for i, k := range all {
			s.rows[i] = k.row
		}
		s.built = true
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, true, nil
}

// limitIter caps the stream.
type limitIter struct {
	child RowIter
	n     int64
	seen  int64
}

func (l *limitIter) Open() error  { l.seen = 0; return l.child.Open() }
func (l *limitIter) Close() error { return l.child.Close() }

func (l *limitIter) Next() (vtypes.Row, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	row, ok, err := l.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

// unionIter concatenates children (the serial rendering of an exchange).
type unionIter struct {
	children []RowIter
	cur      int
}

func (u *unionIter) Open() error {
	u.cur = 0
	for _, c := range u.children {
		if err := c.Open(); err != nil {
			return err
		}
	}
	return nil
}

func (u *unionIter) Close() error {
	var first error
	for _, c := range u.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (u *unionIter) Next() (vtypes.Row, bool, error) {
	for u.cur < len(u.children) {
		row, ok, err := u.children[u.cur].Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
		u.cur++
	}
	return nil, false, nil
}

// EvalRow interprets a scalar over one boxed row — the per-tuple
// recursive interpretation whose overhead the paper quantifies. It reads
// NULL as SQL does, from the boxed values alone: every operator but IS
// NULL and CASE is NULL when an operand is, and AND and OR follow
// three-valued (Kleene) logic. It never calls the other engines' NULL
// rule (Known, in package algebra), so the differential tests check
// that rule against an independent reading.
func EvalRow(s algebra.Scalar, row vtypes.Row) (vtypes.Value, error) {
	switch t := s.(type) {
	case *algebra.ColRef:
		return row[t.Idx], nil
	case *algebra.Lit:
		return t.Val, nil
	case *algebra.Arith:
		l, err := EvalRow(t.L, row)
		if err != nil {
			return vtypes.Value{}, err
		}
		r, err := EvalRow(t.R, row)
		if err != nil {
			return vtypes.Value{}, err
		}
		if l.Null || r.Null {
			return vtypes.NullValue(t.K), nil
		}
		if t.K.StorageClass() == vtypes.ClassF64 {
			lf, rf := l.F64, r.F64
			switch t.Op {
			case algebra.OpAdd:
				return vtypes.F64Value(lf + rf), nil
			case algebra.OpSub:
				return vtypes.F64Value(lf - rf), nil
			case algebra.OpMul:
				return vtypes.F64Value(lf * rf), nil
			default:
				if rf == 0 {
					return vtypes.F64Value(0), nil
				}
				return vtypes.F64Value(lf / rf), nil
			}
		}
		li, ri := l.I64, r.I64
		var v int64
		switch t.Op {
		case algebra.OpAdd:
			v = li + ri
		case algebra.OpSub:
			v = li - ri
		case algebra.OpMul:
			v = li * ri
		default:
			if ri == 0 {
				v = 0
			} else {
				v = li / ri
			}
		}
		return vtypes.Value{Kind: t.K, I64: v}, nil
	case *algebra.Cast:
		v, err := EvalRow(t.In, row)
		if err != nil || v.Null {
			return vtypes.Value{Kind: t.To, Null: v.Null}, err
		}
		switch t.To.StorageClass() {
		case vtypes.ClassF64:
			return vtypes.F64Value(v.AsFloat()), nil
		case vtypes.ClassI64:
			return vtypes.Value{Kind: t.To, I64: v.AsInt()}, nil
		}
		return v, nil
	case *algebra.Cmp:
		l, err := EvalRow(t.L, row)
		if err != nil {
			return vtypes.Value{}, err
		}
		r, err := EvalRow(t.R, row)
		if err != nil {
			return vtypes.Value{}, err
		}
		if l.Null || r.Null {
			return vtypes.NullValue(vtypes.KindBool), nil
		}
		cmp := l.Compare(r)
		var b bool
		switch t.Op {
		case algebra.CmpEq:
			b = cmp == 0
		case algebra.CmpNe:
			b = cmp != 0
		case algebra.CmpLt:
			b = cmp < 0
		case algebra.CmpLe:
			b = cmp <= 0
		case algebra.CmpGt:
			b = cmp > 0
		default:
			b = cmp >= 0
		}
		return vtypes.BoolValue(b), nil
	case *algebra.Like:
		v, err := EvalRow(t.In, row)
		if err != nil || v.Null {
			return vtypes.Value{Kind: vtypes.KindBool, Null: v.Null}, err
		}
		return vtypes.BoolValue(matchLike(v.Str, t.Pattern) != t.Negate), nil
	case *algebra.In:
		v, err := EvalRow(t.In, row)
		if err != nil || v.Null {
			return vtypes.Value{Kind: vtypes.KindBool, Null: v.Null}, err
		}
		// No member equal: FALSE, or NULL if a member is NULL.
		res := vtypes.BoolValue(false)
		for _, c := range t.List {
			if c.Null {
				res.Null = true
			} else if v.Equal(c) {
				return vtypes.BoolValue(true), nil
			}
		}
		return res, nil
	case *algebra.And:
		return kleene(t.Preds, row, false)
	case *algebra.Or:
		return kleene(t.Preds, row, true)
	case *algebra.Case:
		c, err := EvalRow(t.Cond, row)
		if err != nil {
			return vtypes.Value{}, err
		}
		var v vtypes.Value
		if !c.Null && c.B {
			v, err = EvalRow(t.Then, row)
		} else {
			v, err = EvalRow(t.Else, row)
		}
		return v, err
	case *algebra.YearOf:
		v, err := EvalRow(t.In, row)
		if err != nil || v.Null {
			return vtypes.Value{Kind: vtypes.KindI64, Null: v.Null}, err
		}
		return vtypes.I64Value(vtypes.Year(v.I64)), nil
	case *algebra.IsNull:
		v, err := EvalRow(t.In, row)
		if err != nil {
			return vtypes.Value{}, err
		}
		return vtypes.BoolValue(v.Null != t.Negate), nil
	default:
		return vtypes.Value{}, fmt.Errorf("tupleengine: unsupported scalar %T", s)
	}
}

// kleene evaluates an AND (dominant false) or an OR (dominant true) of
// preds in three-valued logic: the dominant value if any operand has it,
// else NULL if any operand is NULL, else the other value.
func kleene(preds []algebra.Scalar, row vtypes.Row, dominant bool) (vtypes.Value, error) {
	null := false
	for _, p := range preds {
		v, err := EvalRow(p, row)
		switch {
		case err != nil:
			return vtypes.Value{}, err
		case v.Null:
			null = true
		case v.B == dominant:
			return vtypes.BoolValue(dominant), nil
		}
	}
	if null {
		return vtypes.NullValue(vtypes.KindBool), nil
	}
	return vtypes.BoolValue(!dominant), nil
}

// matchLike is a per-row LIKE interpreter (no pattern precompilation —
// the interpretation overhead is the point of this engine): '%' matches
// any run of characters and '_' one character, a UTF-8 sequence or a
// byte that starts none. It recurses on each '%' instead of backtracking
// as the vectorized engine's matcher does, so the two stay independent.
func matchLike(s, pattern string) bool {
	for pattern != "" {
		switch pattern[0] {
		case '%':
			for pattern = pattern[1:]; !matchLike(s, pattern); s = s[charLen(s):] {
				if s == "" {
					return false
				}
			}
			return true
		case '_':
			if s == "" {
				return false
			}
			s, pattern = s[charLen(s):], pattern[1:]
		default:
			if s == "" || s[0] != pattern[0] {
				return false
			}
			s, pattern = s[1:], pattern[1:]
		}
	}
	return s == ""
}

// charLen is the length of the character s starts with.
func charLen(s string) int {
	_, n := utf8.DecodeRuneInString(s)
	return n
}

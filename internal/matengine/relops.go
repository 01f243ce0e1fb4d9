package matengine

import (
	"sort"

	"vectorwise/internal/algebra"
	"vectorwise/internal/hashtable"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// execAgg groups over fully materialized key columns.
func execAgg(t *algebra.AggNode, in *Rel) (*Rel, error) {
	// Materialize group-key and argument columns whole (BAT style).
	sch := t.Input.Schema()
	keyCols := make([]*vector.Vector, len(t.GroupBy))
	for i, g := range t.GroupBy {
		v, err := evalCol(g, in, sch)
		if err != nil {
			return nil, err
		}
		keyCols[i] = v
	}
	argCols := make([]*vector.Vector, len(t.Aggs))
	for i, a := range t.Aggs {
		if a.Arg == nil {
			continue
		}
		v, err := evalCol(a.Arg, in, sch)
		if err != nil {
			return nil, err
		}
		argCols[i] = v
	}

	type group struct {
		key  vtypes.Row
		sum  []float64
		isum []int64
		cnt  []int64
		min  []vtypes.Value
		max  []vtypes.Value
	}
	ht := hashtable.New(0)
	var order []*group
	newGroup := func(key vtypes.Row) *group {
		g := &group{
			key:  key,
			sum:  make([]float64, len(t.Aggs)),
			isum: make([]int64, len(t.Aggs)),
			cnt:  make([]int64, len(t.Aggs)),
			min:  make([]vtypes.Value, len(t.Aggs)),
			max:  make([]vtypes.Value, len(t.Aggs)),
		}
		order = append(order, g)
		return g
	}

	for i := 0; i < in.N; i++ {
		key := make(vtypes.Row, len(keyCols))
		for c, v := range keyCols {
			key[c] = v.Get(i)
		}
		gid, _ := ht.Put(key.Hash(), func(v uint32) bool {
			cand := order[v]
			for c := range key {
				if !cand.key[c].Equal(key[c]) {
					return false
				}
			}
			return true
		}, func() uint32 {
			newGroup(key)
			return uint32(len(order) - 1)
		})
		g := order[gid]
		for a, spec := range t.Aggs {
			var v vtypes.Value
			if argCols[a] != nil {
				if v = argCols[a].Get(i); v.Null {
					continue // aggregates skip NULL arguments
				}
			}
			switch spec.Fn {
			case algebra.AggCountStar, algebra.AggCount:
				g.cnt[a]++
			case algebra.AggSum:
				if v.Kind.StorageClass() == vtypes.ClassF64 {
					g.sum[a] += v.F64
				} else {
					g.isum[a] += v.I64
				}
			case algebra.AggMin:
				if g.cnt[a] == 0 || v.Compare(g.min[a]) < 0 {
					g.min[a] = v
				}
				g.cnt[a]++
			case algebra.AggMax:
				if g.cnt[a] == 0 || v.Compare(g.max[a]) > 0 {
					g.max[a] = v
				}
				g.cnt[a]++
			}
		}
	}
	// Parallel partials skip the implicit global row: an empty
	// partition must contribute nothing to the recombination.
	if len(t.GroupBy) == 0 && len(order) == 0 && !t.Partial {
		newGroup(vtypes.Row{}) // appends itself to order
	}

	out := &Rel{N: len(order)}
	schema := t.Schema()
	for c := 0; c < schema.Len(); c++ {
		out.Cols = append(out.Cols, vector.New(schema.Col(c).Kind, len(order)))
	}
	for i, g := range order {
		for c := range keyCols {
			out.Cols[c].Set(i, g.key[c])
		}
		for a, spec := range t.Aggs {
			col := out.Cols[len(keyCols)+a]
			switch spec.Fn {
			case algebra.AggCountStar, algebra.AggCount:
				col.Set(i, vtypes.I64Value(g.cnt[a]))
			case algebra.AggSum:
				if spec.Arg.Kind().StorageClass() == vtypes.ClassF64 {
					col.Set(i, vtypes.F64Value(g.sum[a]))
				} else {
					col.Set(i, vtypes.I64Value(g.isum[a]))
				}
			case algebra.AggMin:
				col.Set(i, g.min[a])
			case algebra.AggMax:
				col.Set(i, g.max[a])
			}
		}
	}
	return out.charge(), nil
}

// execJoin hash-joins two fully materialized relations.
func execJoin(t *algebra.JoinNode, l, r *Rel) (*Rel, error) {
	rKeyCols := make([]*vector.Vector, len(t.RightKeys))
	for i, k := range t.RightKeys {
		v, err := evalCol(k, r, t.Right.Schema())
		if err != nil {
			return nil, err
		}
		rKeyCols[i] = v
	}
	lKeyCols := make([]*vector.Vector, len(t.LeftKeys))
	for i, k := range t.LeftKeys {
		v, err := evalCol(k, l, t.Left.Schema())
		if err != nil {
			return nil, err
		}
		lKeyCols[i] = v
	}
	// Distinct build keys map to ids in the shared open-addressing
	// table; duplicate-key build rows collect under their id.
	ht := hashtable.New(r.N)
	var heads []int32    // per distinct key: representative build row
	var rowsOf [][]int32 // per distinct key: build rows in order
	rEq := func(a int, b int32) bool {
		for c := range rKeyCols {
			if !rKeyCols[c].Get(a).Equal(rKeyCols[c].Get(int(b))) {
				return false
			}
		}
		return true
	}
	// A NULL key never matches: such build rows are not inserted, such
	// probe rows are misses.
	keyAt := func(cols []*vector.Vector, i int) (key vtypes.Row, null bool) {
		key = make(vtypes.Row, len(cols))
		for c, v := range cols {
			key[c] = v.Get(i)
			null = null || key[c].Null
		}
		return key, null
	}
	for i := 0; i < r.N; i++ {
		key, null := keyAt(rKeyCols, i)
		if null {
			continue
		}
		kid, _ := ht.Put(key.Hash(), func(v uint32) bool {
			return rEq(i, heads[v])
		}, func() uint32 {
			heads = append(heads, int32(i))
			rowsOf = append(rowsOf, nil)
			return uint32(len(heads) - 1)
		})
		rowsOf[kid] = append(rowsOf[kid], int32(i))
	}
	eq := func(li int, ri int32) bool {
		for c := range lKeyCols {
			if !lKeyCols[c].Get(li).Equal(rKeyCols[c].Get(int(ri))) {
				return false
			}
		}
		return true
	}
	var li32, ri32 []int32
	for i := 0; i < l.N; i++ {
		var kid uint32
		matched := false
		if key, null := keyAt(lKeyCols, i); !null {
			kid, matched = ht.Get(key.Hash(), func(v uint32) bool {
				return eq(i, heads[v])
			})
		}
		if matched {
			switch t.Type {
			case algebra.JoinInner, algebra.JoinLeftOuter:
				for _, ri := range rowsOf[kid] {
					li32 = append(li32, int32(i))
					ri32 = append(ri32, ri)
				}
			case algebra.JoinLeftSemi:
				li32 = append(li32, int32(i))
			}
		}
		if !matched {
			switch t.Type {
			case algebra.JoinLeftAnti:
				li32 = append(li32, int32(i))
			case algebra.JoinLeftOuter:
				li32 = append(li32, int32(i))
				ri32 = append(ri32, -1)
			}
		}
	}
	out := &Rel{N: len(li32)}
	for _, v := range l.Cols {
		nv := vector.New(v.Kind, len(li32))
		nv.GatherFrom(v, li32)
		out.Cols = append(out.Cols, nv)
	}
	if t.Type == algebra.JoinInner || t.Type == algebra.JoinLeftOuter {
		for _, v := range r.Cols {
			nv := vector.New(v.Kind, len(li32))
			for k, ri := range ri32 {
				if ri < 0 {
					nv.Set(k, vtypes.NullValue(v.Kind))
					continue
				}
				nv.CopyFrom(v, int(ri), k, 1)
			}
			out.Cols = append(out.Cols, nv)
		}
	}
	return out.charge(), nil
}

// execSort orders a materialized relation by full-column keys.
func execSort(t *algebra.SortNode, in *Rel) (*Rel, error) {
	sch := t.Input.Schema()
	keyCols := make([]*vector.Vector, len(t.Keys))
	for i, k := range t.Keys {
		v, err := evalCol(k.Expr, in, sch)
		if err != nil {
			return nil, err
		}
		keyCols[i] = v
	}
	perm := make([]int32, in.N)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ia, ib := int(perm[a]), int(perm[b])
		for c, k := range t.Keys {
			cmp := keyCols[c].Get(ia).Compare(keyCols[c].Get(ib))
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
	out := &Rel{N: in.N}
	for _, v := range in.Cols {
		nv := vector.New(v.Kind, in.N)
		nv.GatherFrom(v, perm)
		out.Cols = append(out.Cols, nv)
	}
	return out.charge(), nil
}

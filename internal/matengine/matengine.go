// Package matengine is the column-at-a-time, full-materialization
// baseline: MonetDB's execution model as the paper describes it — "a
// column-at-a-time processing model [that] materializes full
// intermediate results", whose "materialization may lead to very
// significant, avoidable, resource consumption" (§I-A).
//
// Each operator consumes fully materialized column relations and
// produces a new fully materialized relation: selections build entire
// new columns for the survivors, projections materialize every computed
// expression whole-column, and so on. Per-value work is as tight as the
// vectorized engine's (the loops are the same primitives); what differs
// is that every intermediate is table-sized instead of vector-sized.
// MatBytes tracks the intermediate volume for experiment C2.
package matengine

import (
	"fmt"
	"sync/atomic"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/pdt"
	"vectorwise/internal/primitives"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// matBytes accumulates the bytes of materialized intermediates.
var matBytes atomic.Int64

// ResetMatBytes zeroes the intermediate-volume counter.
func ResetMatBytes() { matBytes.Store(0) }

// MatBytes returns the bytes of intermediates materialized since the
// last reset — the resource consumption the paper calls avoidable.
func MatBytes() int64 { return matBytes.Load() }

// Rel is a fully materialized relation: whole columns in memory.
type Rel struct {
	Cols []*vector.Vector
	N    int
}

// charge accounts a freshly materialized relation.
func (r *Rel) charge() *Rel {
	var b int64
	for _, c := range r.Cols {
		switch c.Kind.StorageClass() {
		case vtypes.ClassI64, vtypes.ClassF64:
			b += int64(r.N) * 8
		case vtypes.ClassStr:
			b += int64(r.N) * 16
		case vtypes.ClassBool:
			b += int64(r.N)
		}
	}
	matBytes.Add(b)
	return r
}

// Row boxes row i (results boundary).
func (r *Rel) Row(i int) vtypes.Row {
	row := make(vtypes.Row, len(r.Cols))
	for c, v := range r.Cols {
		row[c] = v.Get(i)
	}
	return row
}

// Run executes a plan column-at-a-time and returns boxed rows.
func Run(n algebra.Node, cat *catalog.Catalog) ([]vtypes.Row, error) {
	rel, err := Exec(n, cat)
	if err != nil {
		return nil, err
	}
	out := make([]vtypes.Row, rel.N)
	for i := 0; i < rel.N; i++ {
		out[i] = rel.Row(i)
	}
	return out, nil
}

// Exec evaluates a plan to a materialized relation.
func Exec(n algebra.Node, cat *catalog.Catalog) (*Rel, error) {
	switch t := n.(type) {
	case *algebra.ScanNode:
		return execScan(t, cat)
	case *algebra.SelectNode:
		in, err := Exec(t.Input, cat)
		if err != nil {
			return nil, err
		}
		return execSelect(t, in)
	case *algebra.ProjectNode:
		in, err := Exec(t.Input, cat)
		if err != nil {
			return nil, err
		}
		return execProject(t, in)
	case *algebra.AggNode:
		in, err := Exec(t.Input, cat)
		if err != nil {
			return nil, err
		}
		return execAgg(t, in)
	case *algebra.JoinNode:
		l, err := Exec(t.Left, cat)
		if err != nil {
			return nil, err
		}
		r, err := Exec(t.Right, cat)
		if err != nil {
			return nil, err
		}
		return execJoin(t, l, r)
	case *algebra.SortNode:
		in, err := Exec(t.Input, cat)
		if err != nil {
			return nil, err
		}
		return execSort(t, in)
	case *algebra.LimitNode:
		in, err := Exec(t.Input, cat)
		if err != nil {
			return nil, err
		}
		if int64(in.N) <= t.N {
			return in, nil
		}
		out := &Rel{Cols: make([]*vector.Vector, len(in.Cols)), N: int(t.N)}
		idx := iota32(int(t.N))
		for c, v := range in.Cols {
			nv := vector.New(v.Kind, int(t.N))
			nv.GatherFrom(v, idx)
			out.Cols[c] = nv
		}
		return out.charge(), nil
	case *algebra.UnionAllNode:
		var rels []*Rel
		total := 0
		for _, in := range t.Inputs {
			r, err := Exec(in, cat)
			if err != nil {
				return nil, err
			}
			rels = append(rels, r)
			total += r.N
		}
		out := &Rel{N: total}
		for c := range rels[0].Cols {
			nv := vector.New(rels[0].Cols[c].Kind, total)
			off := 0
			for _, r := range rels {
				nv.CopyFrom(r.Cols[c], 0, off, r.N)
				off += r.N
			}
			out.Cols = append(out.Cols, nv)
		}
		return out.charge(), nil
	case *algebra.RemoteNode:
		return nil, fmt.Errorf("matengine: remote leaves are not supported")
	default:
		return nil, fmt.Errorf("matengine: unsupported node %T", n)
	}
}

func iota32(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// execScan materializes whole columns (BAT-style base access).
func execScan(t *algebra.ScanNode, cat *catalog.Catalog) (*Rel, error) {
	if t.RowID {
		return nil, fmt.Errorf("matengine: row-id scans are not supported")
	}
	tbl, layers, err := cat.Resolve(t.Table)
	if err != nil {
		return nil, err
	}
	sc := storage.NewScanner(tbl, t.Cols, storage.DecodedFetcher{}, nil, 4096)
	if t.PartHi > 0 {
		sc.SetGroupRange(t.PartLo, t.PartHi)
	}
	src := pdt.MergeLayers(sc, layers, t.Cols, 4096)
	out := &Rel{Cols: make([]*vector.Vector, len(t.Cols))}
	for i, c := range t.Cols {
		out.Cols[i] = vector.New(tbl.Schema().Col(c).Kind, 0)
	}
	for {
		cols, n, err := src.Next()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		for i := range out.Cols {
			appendVec(out.Cols[i], cols[i], n)
		}
		out.N += n
	}
	return out.charge(), nil
}

func appendVec(dst, src *vector.Vector, n int) {
	switch dst.Kind.StorageClass() {
	case vtypes.ClassI64:
		dst.I64 = append(dst.I64, src.I64[:n]...)
	case vtypes.ClassF64:
		dst.F64 = append(dst.F64, src.F64[:n]...)
	case vtypes.ClassStr:
		dst.Str = append(dst.Str, src.Str[:n]...)
	case vtypes.ClassBool:
		dst.B = append(dst.B, src.B[:n]...)
	}
	if src.Nulls != nil {
		for dst.Nulls == nil {
			dst.Nulls = make([]bool, dst.Len()-n)
		}
		dst.Nulls = append(dst.Nulls, src.Nulls[:n]...)
	} else if dst.Nulls != nil {
		dst.Nulls = append(dst.Nulls, make([]bool, n)...)
	}
}

// execSelect evaluates the predicate over the whole column set, then
// materializes the surviving rows into brand-new columns — the
// full-materialization step the vectorized engine avoids with selection
// vectors.
func execSelect(t *algebra.SelectNode, in *Rel) (*Rel, error) {
	sch := t.Input.Schema()
	mask, err := evalBool(algebra.Known(t.Pred, sch), in, sch)
	if err != nil {
		return nil, err
	}
	sel := make([]int32, in.N)
	k := primitives.SelTrue(sel, mask, nil, in.N)
	out := &Rel{Cols: make([]*vector.Vector, len(in.Cols)), N: k}
	for c, v := range in.Cols {
		nv := vector.New(v.Kind, k)
		nv.GatherFrom(v, sel[:k])
		out.Cols[c] = nv
	}
	return out.charge(), nil
}

// execProject materializes each expression as a full column.
func execProject(t *algebra.ProjectNode, in *Rel) (*Rel, error) {
	out := &Rel{N: in.N}
	sch := t.Input.Schema()
	for _, e := range t.Exprs {
		col, err := evalCol(e, in, sch)
		if err != nil {
			return nil, err
		}
		out.Cols = append(out.Cols, col)
	}
	return out.charge(), nil
}

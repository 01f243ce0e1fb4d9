package sql

// Cardinality estimation for join planning. The only inputs are what the
// catalog already holds for every table — the row count of the stable
// image (storage.TableMeta.Rows) and the per-chunk min/max of its
// columns (storage.ChunkMeta) — combined by fixed rules: no histograms,
// no sampling, nothing to refresh. An estimate is a float so that small
// selectivities multiply without rounding; a plan node records it
// rounded up (Est), which is all EXPLAIN shows.

import (
	"math"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// defaultSel is the selectivity of every conjunct no rule covers:
// parameters (a template is planned once for all bound values),
// column-vs-column comparisons, LIKE, OR trees, string equality, HAVING.
const defaultSel = 0.25

// card is the estimate for one plan node's output.
type card struct {
	rows float64
	// cols is the base-table column each output column carries unchanged
	// (tbl nil: a computed value), the source of range statistics.
	cols []colSrc
}

type colSrc struct {
	tbl *storage.Table
	col int
}

// colRange is the value range chunk statistics give a numeric column.
type colRange struct {
	lo, hi float64
	ok     bool // the column is numeric and every chunk carries statistics
	// discrete columns (BIGINT, DATE) hold at most hi-lo+1 distinct values.
	discrete bool
}

// estimator computes cards; it remembers the column ranges it folded.
type estimator struct {
	cat    *catalog.Catalog
	ranges map[colSrc]colRange
}

// estimates returns the planner's estimator, made at first use: a
// statement without a join never asks.
func (p *Planner) estimates() *estimator {
	if p.est == nil {
		p.est = &estimator{cat: p.Cat, ranges: make(map[colSrc]colRange)}
	}
	return p.est
}

// rangeOf folds a column's per-chunk min/max into its table-wide range.
func (e *estimator) rangeOf(src colSrc) colRange {
	if src.tbl == nil {
		return colRange{}
	}
	if r, ok := e.ranges[src]; ok {
		return r
	}
	class := src.tbl.Meta.Cols[src.col].Kind.StorageClass()
	r := colRange{lo: math.Inf(1), hi: math.Inf(-1), discrete: class == vtypes.ClassI64}
	r.ok = (class == vtypes.ClassI64 || class == vtypes.ClassF64) && len(src.tbl.Meta.Groups) > 0
	for g := 0; r.ok && g < len(src.tbl.Meta.Groups); g++ {
		ch := src.tbl.Meta.Groups[g].Cols[src.col]
		lo, hi := ch.MinF64, ch.MaxF64
		if r.discrete {
			lo, hi = float64(ch.MinI64), float64(ch.MaxI64)
		}
		r.ok = ch.HasStats
		r.lo, r.hi = math.Min(r.lo, lo), math.Max(r.hi, hi)
	}
	e.ranges[src] = r
	return r
}

// distinct bounds the number of distinct values of key over an input:
// never more than its rows, and for an integer or date column never more
// than the width of its value range.
func (e *estimator) distinct(in card, key algebra.Scalar) float64 {
	d := in.rows
	switch t := key.(type) {
	case *algebra.Lit:
		d = 1
	case *algebra.ColRef:
		if r := e.rangeOf(in.cols[t.Idx]); r.ok && r.discrete {
			d = math.Min(d, r.hi-r.lo+1)
		}
	}
	return math.Max(d, 1)
}

// card estimates n's output and records the estimate on the scans, joins
// and aggregates it visits. A scan under a Select records the estimate
// after the Select: the Select is the scan's filter (see
// algebra.SelectNode), and the two are one input to the planner.
func (e *estimator) card(n algebra.Node) card {
	switch t := n.(type) {
	case *algebra.ScanNode:
		c := card{cols: make([]colSrc, t.Out.Len())}
		if tbl, _, err := e.cat.Resolve(t.Table); err == nil {
			c.rows = float64(tbl.Meta.Rows)
			for i := range t.Cols { // a RowID column, if any, stays computed
				c.cols[i] = colSrc{tbl, t.Cols[i]}
			}
		}
		t.Est = ceil(c.rows)
		return c
	case *algebra.SelectNode:
		c := e.card(t.Input)
		c.rows *= e.selectivity(t.Pred, c)
		if scan, ok := t.Input.(*algebra.ScanNode); ok {
			scan.Est = ceil(c.rows)
		}
		return c
	case *algebra.ProjectNode:
		in := e.card(t.Input)
		c := card{rows: in.rows, cols: make([]colSrc, len(t.Exprs))}
		for i, x := range t.Exprs {
			if ref, ok := x.(*algebra.ColRef); ok {
				c.cols[i] = in.cols[ref.Idx]
			}
		}
		return c
	case *algebra.AggNode:
		in := e.card(t.Input)
		c := card{rows: 1, cols: make([]colSrc, len(t.GroupBy)+len(t.Aggs))}
		for i, g := range t.GroupBy {
			c.rows *= e.distinct(in, g)
			if ref, ok := g.(*algebra.ColRef); ok {
				c.cols[i] = in.cols[ref.Idx]
			}
		}
		c.rows = math.Min(c.rows, in.rows)
		if len(t.GroupBy) == 0 && !t.Partial {
			c.rows = 1
		}
		t.Est = ceil(c.rows)
		return c
	case *algebra.JoinNode:
		c := e.join(e.card(t.Left), e.card(t.Right), t.LeftKeys, t.RightKeys, t.Type)
		t.Est = ceil(c.rows)
		return c
	case *algebra.SortNode:
		return e.card(t.Input)
	case *algebra.LimitNode:
		c := e.card(t.Input)
		c.rows = math.Min(c.rows, float64(t.N))
		return c
	case *algebra.UnionAllNode:
		c := card{cols: make([]colSrc, t.Schema().Len())}
		for _, in := range t.Inputs {
			c.rows += e.card(in).rows
		}
		return c
	default:
		return card{cols: make([]colSrc, n.Schema().Len())}
	}
}

// join estimates an equi-join: every pair of rows that agree on a key
// column is |L|·|R| ÷ the larger distinct bound of the two sides, the
// textbook containment assumption; further key columns divide again. A
// semi join keeps at most its left rows, an anti join the rest (at
// least defaultSel of them), a left outer join at least its left rows.
func (e *estimator) join(l, r card, lkeys, rkeys []algebra.Scalar, typ algebra.JoinType) card {
	rows := l.rows * r.rows
	for i := range lkeys {
		rows /= math.Max(e.distinct(l, lkeys[i]), e.distinct(r, rkeys[i]))
	}
	c := card{cols: l.cols}
	switch typ {
	case algebra.JoinInner:
		c.rows = rows
		c.cols = append(append([]colSrc(nil), l.cols...), r.cols...)
	case algebra.JoinLeftOuter:
		c.rows = math.Max(rows, l.rows)
		c.cols = append(append([]colSrc(nil), l.cols...), r.cols...)
	case algebra.JoinLeftSemi:
		c.rows = math.Min(rows, l.rows)
	case algebra.JoinLeftAnti:
		c.rows = math.Max(l.rows-rows, l.rows*defaultSel)
	}
	return c
}

// selectivity estimates the fraction of in's rows a predicate keeps:
// the product over its conjuncts, with the bounds on one column read as
// one algebra.Interval (algebra.ReadConjunction), so `x BETWEEN a AND b`
// and `x >= a AND x <= b` are one overlap, not two independent ones.
func (e *estimator) selectivity(s algebra.Scalar, in card) float64 {
	conj := []algebra.Scalar{s}
	if a, ok := s.(*algebra.And); ok {
		conj = a.Preds
	}
	sel := 1.0
	read := make([]bool, len(conj))
	for _, r := range algebra.ReadConjunction(conj) {
		sel *= e.interval(in, &r.Interval)
		for _, i := range r.Conj {
			read[i] = true
		}
	}
	for i, p := range conj {
		switch _, and := p.(*algebra.And); {
		case read[i]:
		case and:
			sel *= e.selectivity(p, in)
		default:
			sel *= defaultSel
		}
	}
	return sel
}

// interval estimates the fraction of in's rows a known interval keeps: an
// IN list or a point as equalities, bounds as the overlap of the column's
// range, and each excluded value as one equality left out.
func (e *estimator) interval(in card, iv *algebra.Interval) float64 {
	sel := 1.0
	switch {
	case iv.In != nil:
		sel = e.equals(in, iv.Col, len(iv.In))
	case iv.Lo.Set && iv.Hi.Set && iv.Lo.Val.Compare(iv.Hi.Val) == 0:
		sel = e.equals(in, iv.Col, 1)
	case iv.Lo.Set || iv.Hi.Set:
		lo, hi := math.Inf(-1), math.Inf(1)
		if iv.Lo.Set {
			lo = iv.Lo.Val.AsFloat()
		}
		if iv.Hi.Set {
			hi = iv.Hi.Val.AsFloat()
		}
		sel = e.rangeOf(in.cols[iv.Col.Idx]).overlap(lo, hi)
	}
	for range iv.Ne {
		sel *= 1 - e.equals(in, iv.Col, 1)
	}
	return sel
}

// equals is the selectivity of `col = v` / `col IN (n values)`: n of the
// column's distinct bound when it has one (an integer or date column),
// the default otherwise.
func (e *estimator) equals(in card, ref *algebra.ColRef, n int) float64 {
	if r := e.rangeOf(in.cols[ref.Idx]); !r.ok || !r.discrete {
		return defaultSel
	}
	return math.Min(float64(n)/e.distinct(in, ref), 1)
}

// overlap is the fraction of the column's range that [lo, hi] covers,
// the default when the column has no range.
func (r colRange) overlap(lo, hi float64) float64 {
	if !r.ok {
		return defaultSel
	}
	unit := 0.0
	if r.discrete {
		unit = 1
	}
	width := r.hi - r.lo + unit
	if width <= 0 { // one value: it is inside [lo, hi] or not
		if lo <= r.lo && r.lo <= hi {
			return 1
		}
		return 0
	}
	covered := math.Min(hi, r.hi) - math.Max(lo, r.lo) + unit
	return math.Max(0, math.Min(covered/width, 1))
}

func ceil(rows float64) int64 { return int64(math.Ceil(rows)) }

// hasJoin reports whether a plan holds a join: only such plans are
// estimated.
func hasJoin(n algebra.Node) bool {
	found := false
	_, _ = algebra.MapNode(n, nil, func(n algebra.Node) (algebra.Node, error) {
		_, join := n.(*algebra.JoinNode)
		found = found || join
		return n, nil
	})
	return found
}

// Package xcompile is the cross-compiler of the paper (§I-B, ref [7]):
// it translates optimized relational algebra plans into executable X100
// operator trees, compiling scalar expressions down to vectorized
// primitive kernels. It is the only bridge between the planning stack
// and the vectorized engine.
package xcompile

import (
	"context"
	"fmt"
	"slices"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/expr"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// Options configure compilation.
type Options struct {
	// VecSize overrides the engine vector size (0 = default).
	VecSize int
	// Fetch interposes a buffer manager on scans.
	Fetch storage.ChunkFetcher
	// ScanStats, when non-nil, receives scanned/pruned row-group
	// counts from every scan the compiled plan runs (partition scans
	// share it; the fields are atomic).
	ScanStats *storage.ScanStats
	// HashStats, when non-nil, receives hash-table shape and probe
	// stats from every HashAggregate and HashJoin in the compiled plan
	// (recorded at operator close; the sink is internally locked).
	HashStats *core.HashStatsSink
	// NoPrune disables min/max row-group pruning and the binary search
	// of sorted chunks (filters still evaluate inside the scan) — the
	// differential-testing and benchmarking switch for isolating data
	// skipping.
	NoPrune bool
	// Ctx is the statement's cancellation context. It is installed on
	// every operator the compiler builds, so once the context is done,
	// Next returns the context error at the next vector boundary —
	// scans, joins, aggregates and exchange workers all stop mid-
	// statement instead of running to completion. Nil disables the
	// checks (hand-built experiment plans pay nothing).
	Ctx context.Context
	// Resolver, when non-nil, supplies each scan's stable image and PDT
	// layer stack instead of the live catalog. Epoch-snapshot cursors
	// pass their pinned snapshot here, so a compiled statement reads
	// exactly the commit point it pinned no matter what commits, folds
	// or stable-image swaps happen while it streams.
	Resolver Resolver
	// Remote, when non-nil, builds the operator behind a RemoteNode: the
	// cluster coordinator supplies the shard stream here. Without it a
	// plan holding remote leaves does not compile.
	Remote func(*algebra.RemoteNode) (core.Operator, error)
}

// Resolver resolves a table name to the stable image and PDT layer
// stack (bottom first) its scans should merge. *catalog.Catalog
// implements it with the live committed stack; an epoch snapshot with
// one layer, the stack folded once per pin.
type Resolver interface {
	Resolve(name string) (*storage.Table, []*pdt.PDT, error)
}

// Compile translates a plan into a vectorized operator tree.
func Compile(n algebra.Node, cat *catalog.Catalog, opts Options) (core.Operator, error) {
	c := &compiler{cat: cat, opts: opts}
	return c.node(n)
}

type compiler struct {
	cat  *catalog.Catalog
	opts Options
	// topN holds the row bound of each SortNode a LimitNode sits over.
	topN map[*algebra.SortNode]int64
	// ordered records, for each node compiled, which of its output
	// columns never decrease in the order its operator emits rows, given
	// the data this execution reads (see sorted). Absent: none.
	ordered map[algebra.Node][]bool
}

// sorted returns which of a scan's output columns arrive in order: those
// whose table column is Ordered, when no delta layer the scan merges
// inserts a row or modifies the column. Deltas are checked only for a
// column the table orders.
func sorted(t *algebra.ScanNode, tbl *storage.Table, layers []*pdt.PDT) []bool {
	var out []bool
	for i, c := range t.Cols {
		if !tbl.Ordered(c) || slices.ContainsFunc(layers, func(p *pdt.PDT) bool { return p != nil && !p.KeepsOrder(c) }) {
			continue
		}
		if out == nil {
			out = make([]bool, t.Schema().Len())
		}
		out[i] = true
	}
	return out
}

// orderedRef reports whether s is a plain reference to a column of an
// input that ord records as arriving in order.
func orderedRef(s algebra.Scalar, ord []bool) bool {
	c, ok := s.(*algebra.ColRef)
	return ok && c.Idx < len(ord) && ord[c.Idx]
}

// record notes which output columns of n arrive in order.
func (c *compiler) record(n algebra.Node, ord []bool) {
	if !slices.Contains(ord, true) {
		return
	}
	if c.ordered == nil {
		c.ordered = map[algebra.Node][]bool{}
	}
	c.ordered[n] = ord
}

// node compiles one plan node and installs the statement context on the
// resulting operator (children were installed on their own recursive
// calls, so the whole tree ends up cancellation-aware).
func (c *compiler) node(n algebra.Node) (core.Operator, error) {
	op, err := c.nodeInner(n)
	if err != nil {
		return nil, err
	}
	if c.opts.Ctx != nil {
		core.SetTreeContext(op, c.opts.Ctx)
	}
	return op, nil
}

func (c *compiler) nodeInner(n algebra.Node) (core.Operator, error) {
	switch t := n.(type) {
	case *algebra.ScanNode:
		return c.scan(t, nil)

	case *algebra.SelectNode:
		if scan, ok := t.Input.(*algebra.ScanNode); ok {
			op, err := c.scan(scan, conjuncts(t.Pred))
			c.record(t, c.ordered[scan])
			return op, err
		}
		child, err := c.node(t.Input)
		if err != nil {
			return nil, err
		}
		pred, err := c.pred(t.Pred, t.Input.Schema())
		if err != nil {
			return nil, err
		}
		c.record(t, c.ordered[t.Input])
		return core.NewSelect(child, pred), nil

	case *algebra.ProjectNode:
		child, err := c.node(t.Input)
		if err != nil {
			return nil, err
		}
		exprs := make([]core.Expr, len(t.Exprs))
		for i, s := range t.Exprs {
			e, err := c.scalar(s, t.Input.Schema())
			if err != nil {
				return nil, err
			}
			exprs[i] = e
		}
		if in := c.ordered[t.Input]; in != nil {
			ord := make([]bool, len(t.Exprs))
			for i, s := range t.Exprs {
				ord[i] = orderedRef(s, in)
			}
			c.record(t, ord)
		}
		return core.NewProject(child, exprs, t.Names), nil

	case *algebra.AggNode:
		child, err := c.node(t.Input)
		if err != nil {
			return nil, err
		}
		groups := make([]core.Expr, len(t.GroupBy))
		for i, g := range t.GroupBy {
			e, err := c.scalar(g, t.Input.Schema())
			if err != nil {
				return nil, err
			}
			groups[i] = e
		}
		aggs := make([]core.AggSpec, len(t.Aggs))
		for i, a := range t.Aggs {
			aggs[i].Fn = core.AggFn(a.Fn)
			if a.Arg != nil {
				if aggs[i].Arg, err = c.scalar(a.Arg, t.Input.Schema()); err != nil {
					return nil, err
				}
			}
		}
		agg := core.NewHashAggregate(child, groups, aggs, t.Names)
		agg.SetPartial(t.Partial)
		agg.SetStatsSink(c.opts.HashStats)
		in := c.ordered[t.Input]
		if k := slices.IndexFunc(t.GroupBy, func(g algebra.Scalar) bool { return orderedRef(g, in) }); k >= 0 {
			agg.SetOrderedKey(k)
			ord := make([]bool, len(t.GroupBy)+len(t.Aggs))
			ord[k] = true // groups come out in the order they came in
			c.record(t, ord)
		}
		return agg, nil

	case *algebra.JoinNode:
		left, err := c.node(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := c.node(t.Right)
		if err != nil {
			return nil, err
		}
		if len(t.LeftKeys) != len(t.RightKeys) {
			return nil, fmt.Errorf("xcompile: join key lists differ (%d vs %d)", len(t.LeftKeys), len(t.RightKeys))
		}
		lk := make([]core.Expr, len(t.LeftKeys))
		rk := make([]core.Expr, len(t.RightKeys))
		for i := range t.LeftKeys {
			if lk[i], err = c.scalar(t.LeftKeys[i], t.Left.Schema()); err != nil {
				return nil, err
			}
			if rk[i], err = c.scalar(t.RightKeys[i], t.Right.Schema()); err != nil {
				return nil, err
			}
		}
		hj, err := core.NewHashJoin(left, right, lk, rk, core.JoinType(t.Type))
		if err != nil {
			return nil, err
		}
		if t.BuildLeft {
			hj.BuildLeft()
		}
		lo := c.ordered[t.Left]
		if len(t.LeftKeys) == 1 && orderedRef(t.LeftKeys[0], lo) && orderedRef(t.RightKeys[0], c.ordered[t.Right]) {
			hj.Merge()
		}
		if !t.BuildLeft && lo != nil {
			// Rows come out in probe order; the build side's order is lost.
			ord := make([]bool, t.Schema().Len())
			copy(ord, lo)
			c.record(t, ord)
		}
		hj.SetStatsSink(c.opts.HashStats)
		return hj, nil

	case *algebra.SortNode:
		child, err := c.node(t.Input)
		if err != nil {
			return nil, err
		}
		keys := make([]core.SortKey, len(t.Keys))
		for i, k := range t.Keys {
			e, err := c.scalar(k.Expr, t.Input.Schema())
			if err != nil {
				return nil, err
			}
			keys[i] = core.SortKey{Expr: e, Desc: k.Desc}
		}
		if n, ok := c.topN[t]; ok {
			return core.NewTopN(child, keys, n), nil
		}
		return core.NewSort(child, keys), nil

	case *algebra.LimitNode:
		if s := sortUnderProjects(t.Input); s != nil {
			// ORDER BY ... LIMIT n: the sort itself stops at n rows and
			// holds no more than a few times n, and the projections
			// between pass every row on, so no Limit runs above them.
			if c.topN == nil {
				c.topN = map[*algebra.SortNode]int64{}
			}
			c.topN[s] = t.N
			return c.node(t.Input)
		}
		child, err := c.node(t.Input)
		if err != nil {
			return nil, err
		}
		return core.NewLimit(child, t.N), nil

	case *algebra.UnionAllNode:
		children := make([]core.Operator, len(t.Inputs))
		for i, in := range t.Inputs {
			op, err := c.node(in)
			if err != nil {
				return nil, err
			}
			children[i] = op
		}
		return core.NewXchgUnion(children)

	case *algebra.RemoteNode:
		if c.opts.Remote == nil {
			return nil, fmt.Errorf("xcompile: remote leaf for shard %d outside a cluster coordinator", t.Shard)
		}
		return c.opts.Remote(t)

	default:
		return nil, fmt.Errorf("xcompile: unsupported node %T", n)
	}
}

// scan compiles a scan whose filter is conj, the conjuncts of the Select
// directly above it (none for a bare scan). The scan evaluates them
// right after decompression: first those algebra.ReadInterval reads, in
// plan order, then the rest. Unless disabled, the ones it reads also
// become a Skip over the same (bound) bounds, so groups the filter
// cannot match are never decompressed at all and a sorted chunk is read
// only over the matching row range. Their per-column bounds are read
// once, for both.
func (c *compiler) scan(t *algebra.ScanNode, conj []algebra.Scalar) (core.Operator, error) {
	var res Resolver = c.cat
	if c.opts.Resolver != nil {
		res = c.opts.Resolver
	}
	tbl, layers, err := res.Resolve(t.Table)
	if err != nil {
		return nil, err
	}
	so := core.ScanOpts{
		VecSize: c.opts.VecSize,
		Fetch:   c.opts.Fetch,
		Stats:   c.opts.ScanStats,
		Layers:  layers,
		GroupLo: t.PartLo,
		GroupHi: t.PartHi,
		RowID:   t.RowID,
	}
	if len(conj) > 0 {
		var read, rest []algebra.Scalar
		for _, s := range conj {
			if _, ok := algebra.ReadInterval(s); ok {
				read = append(read, s)
			} else {
				rest = append(rest, s)
			}
		}
		conj = append(read, rest...)
		ivs := algebra.ReadConjunction(conj)
		if so.Filter, err = c.and(conj, ivs, t.Schema()); err != nil {
			return nil, err
		}
		if !c.opts.NoPrune {
			so.Skip, so.SkipCols = skipOf(tbl, t.Cols, ivs)
		}
	}
	// Pruning, a partition and deletes leave a subsequence: in order.
	c.record(t, sorted(t, tbl, layers))
	return core.NewScan(tbl, t.Cols, so), nil
}

// conjuncts returns a predicate's top-level conjuncts.
func conjuncts(s algebra.Scalar) []algebra.Scalar {
	if a, ok := s.(*algebra.And); ok {
		return a.Preds
	}
	return []algebra.Scalar{s}
}

// sortUnderProjects returns the SortNode below n's projections, if n is
// (Project)* over a sort.
func sortUnderProjects(n algebra.Node) *algebra.SortNode {
	for {
		switch t := n.(type) {
		case *algebra.ProjectNode:
			n = t.Input
		case *algebra.SortNode:
			return t
		default:
			return nil
		}
	}
}

// scalar compiles a value-producing expression.
func (c *compiler) scalar(s algebra.Scalar, in *vtypes.Schema) (expr.Expr, error) {
	switch t := s.(type) {
	case *algebra.ColRef:
		return expr.NewCol(t.Idx, t.K), nil
	case *algebra.Lit:
		return expr.NewConst(t.Val), nil
	case *algebra.Param:
		// Plans holding Params are templates; algebra.BindParams must
		// substitute literals before the plan is executable.
		return nil, fmt.Errorf("xcompile: unbound parameter $%d (bind before execution)", t.Idx)
	case *algebra.Arith:
		l, err := c.scalar(t.L, in)
		if err != nil {
			return nil, err
		}
		r, err := c.scalar(t.R, in)
		if err != nil {
			return nil, err
		}
		return expr.NewArith(t.Op, l, r)
	case *algebra.Cast:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewCast(e, t.To), nil
	case *algebra.YearOf:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewYearOf(e), nil
	case *algebra.Case:
		cond, err := c.scalar(t.Cond, in)
		if err != nil {
			return nil, err
		}
		then, err := c.scalar(t.Then, in)
		if err != nil {
			return nil, err
		}
		el, err := c.scalar(t.Else, in)
		if err != nil {
			return nil, err
		}
		return expr.NewCase(cond, then, el)
	case *algebra.Cmp, *algebra.Like, *algebra.And, *algebra.Or, *algebra.In, *algebra.IsNull:
		// A boolean used as a value is its predicate, marked into a vector.
		p, err := c.pred(s, in)
		if err != nil {
			return nil, err
		}
		return expr.NewPredMap(p), nil
	default:
		return nil, fmt.Errorf("xcompile: unsupported scalar %T as value", s)
	}
}

// pred compiles a boolean scalar into a selection-vector predicate,
// picking fused Sel* kernels for the common shapes. It is the only
// compiler of booleans: scalar wraps its result when a value is needed.
func (c *compiler) pred(s algebra.Scalar, in *vtypes.Schema) (expr.Pred, error) {
	switch t := s.(type) {
	case *algebra.And:
		return c.and(t.Preds, algebra.ReadConjunction(t.Preds), in)
	case *algebra.Or:
		ps, err := c.preds(t.Preds, in)
		if err != nil {
			return nil, err
		}
		return expr.NewOr(ps...), nil
	case *algebra.Like:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewLike(e, t.Pattern, t.Negate)
	case *algebra.In:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewInSet(e, t.List)
	case *algebra.Cmp:
		// col OP literal → constant kernel; else column-column kernel. A
		// NULL literal is the constant wherever it stands: never true.
		op, other, lit := t.Op, t.L, t.R
		left, lLit := t.L.(*algebra.Lit)
		if _, rLit := t.R.(*algebra.Lit); !rLit || lLit && left.Val.Null {
			op, other, lit = op.Flip(), t.R, t.L
		}
		if lit, ok := lit.(*algebra.Lit); ok {
			e, err := c.scalar(other, in)
			if err != nil {
				return nil, err
			}
			return expr.NewCmpConst(e, op, lit.Val)
		}
		l, err := c.scalar(t.L, in)
		if err != nil {
			return nil, err
		}
		r, err := c.scalar(t.R, in)
		if err != nil {
			return nil, err
		}
		return expr.NewCmpCols(l, t.Op, r)
	case *algebra.IsNull:
		col, ok := t.In.(*algebra.ColRef)
		if !ok {
			return nil, fmt.Errorf("xcompile: IS NULL supported on columns only")
		}
		return expr.NewIsNull(expr.NewCol(col.Idx, col.K), t.Negate), nil
	default:
		// A boolean-valued expression (a boolean column, a CASE).
		e, err := c.scalar(s, in)
		if err != nil {
			return nil, err
		}
		return expr.NewBoolPred(e)
	}
}

// and compiles a conjunction, whose per-column bounds ivs are
// (algebra.ReadConjunction): each conjunct narrows the live set the ones
// before it left. A column's fused range (fused) compiles as one between
// pass at its first bound's place, as `x BETWEEN a AND b` does. The plan,
// its EXPLAIN and the scan's Skip keep every conjunct. A conjunction of
// one conjunct compiles to that conjunct's predicate.
func (c *compiler) and(conj []algebra.Scalar, ivs []algebra.ColInterval, in *vtypes.Schema) (expr.Pred, error) {
	ps := make([]expr.Pred, len(conj))
	fused := make([]bool, len(conj))
	for i := range ivs {
		r := &ivs[i]
		if !fusedRange(r) {
			continue
		}
		p, err := expr.NewBetween(expr.NewCol(r.Col.Idx, r.Col.K), r.Lo.Val, r.Hi.Val)
		if err != nil {
			return nil, err
		}
		ps[r.Conj[0]] = p
		for _, j := range r.Conj[1:] {
			fused[j] = true
		}
	}
	out := ps[:0]
	for i, s := range conj {
		if fused[i] {
			continue
		}
		if ps[i] == nil {
			p, err := c.pred(s, in)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		out = append(out, ps[i])
	}
	if len(out) == 1 {
		return out[0], nil
	}
	return expr.NewAnd(out...), nil
}

// fusedRange reports whether a column's bounds in a conjunction compile
// as one between pass: two or more bounds whose intersection is closed
// at both ends, with no IN or `<>` on the column beside them.
func fusedRange(r *algebra.ColInterval) bool {
	return len(r.Conj) >= 2 && r.In == nil && r.Ne == nil && r.Lo.Set && !r.Lo.Open && r.Hi.Set && !r.Hi.Open
}

// preds compiles a list of boolean scalars.
func (c *compiler) preds(ss []algebra.Scalar, in *vtypes.Schema) ([]expr.Pred, error) {
	out := make([]expr.Pred, len(ss))
	for i, s := range ss {
		p, err := c.pred(s, in)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

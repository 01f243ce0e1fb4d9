// Package algebra defines the engine-neutral relational algebra that the
// optimizer produces and that each execution engine consumes:
//
//   - the X100 cross-compiler (internal/xcompile) translates it into
//     vectorized core operators — the paper's "cross compiler [7] that
//     translates optimized relational plans into algebraic X100 plans";
//   - the tuple-at-a-time baseline (internal/tupleengine) interprets it
//     row by row, Volcano style;
//   - the column-at-a-time baseline (internal/matengine) interprets it
//     with full materialization, MonetDB style.
//
// Having one plan language consumed by three engines is what makes the
// paper's comparisons (and our differential correctness tests) apples to
// apples: same plan, different execution discipline.
package algebra

import (
	"fmt"
	"slices"
	"strings"

	"vectorwise/internal/vtypes"
)

// Node is a relational operator in a plan tree.
type Node interface {
	// Schema is the node's output schema.
	Schema() *vtypes.Schema
	// Children returns input nodes (for rewriters and explainers).
	Children() []Node
}

// ScanNode reads a column projection of a base table.
type ScanNode struct {
	// Table is the catalog name.
	Table string
	// Cols are column indexes into the table's full schema.
	Cols []int
	// Out is the projected schema (filled by the planner).
	Out *vtypes.Schema
	// Partition restricts the scan to row groups [Lo, Hi); Hi == 0
	// means the whole table. Set by the parallel rewriter.
	PartLo, PartHi int
	// RowID appends vtypes.RowIDColumn after Cols (Out includes it):
	// each row's position in the table image the scan reads, deltas
	// merged — the RID that PDT deletes and modifies address. It is a
	// plan property set by the DML planner (sql.Planner.PlanDML); only
	// the vectorized engine implements it.
	RowID bool
	// Est is the planner's row estimate for this input: the table's row
	// count times the selectivity of the Select directly above, if any.
	// 0 when the statement was planned without estimates (it holds no
	// join). Explain only.
	Est int64
}

// Schema implements Node.
func (s *ScanNode) Schema() *vtypes.Schema { return s.Out }

// Children implements Node.
func (s *ScanNode) Children() []Node { return nil }

// SelectNode filters rows by a boolean scalar expression. A Select
// directly over a Scan is that scan's filter: the vectorized engine
// evaluates it inside the scan right after decompression and skips row
// groups by the conjuncts ReadInterval reads (xcompile); the other
// engines run it as any other Select.
type SelectNode struct {
	Input Node
	Pred  Scalar
}

// Schema implements Node.
func (s *SelectNode) Schema() *vtypes.Schema { return s.Input.Schema() }

// Children implements Node.
func (s *SelectNode) Children() []Node { return []Node{s.Input} }

// ProjectNode computes one scalar per output column.
type ProjectNode struct {
	Input Node
	Exprs []Scalar
	Names []string
}

// Schema implements Node.
func (p *ProjectNode) Schema() *vtypes.Schema {
	cols := make([]vtypes.Column, len(p.Exprs))
	for i, e := range p.Exprs {
		cols[i] = vtypes.Column{Name: p.Names[i], Kind: e.Kind()}
	}
	return &vtypes.Schema{Cols: cols}
}

// Children implements Node.
func (p *ProjectNode) Children() []Node { return []Node{p.Input} }

// AggFn mirrors core.AggFn: the aggregates every engine computes. The
// planner writes any other in terms of them (sql.Planner.lowerAgg).
type AggFn uint8

// Aggregate functions.
const (
	AggSum AggFn = iota
	AggCount
	AggCountStar
	AggMin
	AggMax
)

func (f AggFn) String() string {
	return [...]string{"sum", "count", "count(*)", "min", "max"}[f]
}

// AggExpr is one aggregate column.
type AggExpr struct {
	Fn  AggFn
	Arg Scalar // nil for COUNT(*)
}

func (a AggExpr) String() string {
	if a.Arg == nil {
		return a.Fn.String()
	}
	return fmt.Sprintf("%s(%s)", a.Fn, a.Arg)
}

// Kind returns the aggregate's result kind.
func (a AggExpr) Kind() vtypes.Kind {
	switch a.Fn {
	case AggCount, AggCountStar:
		return vtypes.KindI64
	default:
		return a.Arg.Kind()
	}
}

// AggNode groups and aggregates.
type AggNode struct {
	Input   Node
	GroupBy []Scalar
	Aggs    []AggExpr
	Names   []string // group names then agg names
	// Partial marks a per-partition aggregate under a parallel
	// recombination: with no GroupBy and zero input rows it emits
	// nothing, instead of the SQL-mandated global row (COUNT()=0,
	// MIN()=NULL, ...) — otherwise an empty partition would feed a
	// zero row into the final MIN/MAX. Set by the parallel rewriter.
	Partial bool
	// Est is the planner's estimate of the group count (see ScanNode.Est).
	Est int64
}

// Schema implements Node.
func (a *AggNode) Schema() *vtypes.Schema {
	cols := make([]vtypes.Column, 0, len(a.GroupBy)+len(a.Aggs))
	for i, g := range a.GroupBy {
		cols = append(cols, vtypes.Column{Name: a.Names[i], Kind: g.Kind()})
	}
	for i, ag := range a.Aggs {
		cols = append(cols, vtypes.Column{Name: a.Names[len(a.GroupBy)+i], Kind: ag.Kind()})
	}
	return &vtypes.Schema{Cols: cols}
}

// Children implements Node.
func (a *AggNode) Children() []Node { return []Node{a.Input} }

// JoinType mirrors the engine join types.
type JoinType uint8

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeftSemi
	JoinLeftAnti
	JoinLeftOuter
)

func (t JoinType) String() string {
	return [...]string{"inner", "semi", "anti", "leftouter"}[t]
}

// JoinNode is an equi-join; key lists align pairwise. The right input
// is the hash build side: the planner puts the input it estimates
// smaller there.
type JoinNode struct {
	Left, Right         Node
	LeftKeys, RightKeys []Scalar
	Type                JoinType
	// BuildLeft is a physical hint for the joins that cannot swap their
	// inputs (semi, anti, left outer): the left input, whose rows the
	// join keeps, is the smaller one, so build the hash table on it and
	// probe with the right. Only the vectorized engine honours it; the
	// result is the same rows either way.
	BuildLeft bool
	// Est is the planner's estimate of the output rows (see ScanNode.Est).
	Est int64
}

// Schema implements Node.
func (j *JoinNode) Schema() *vtypes.Schema {
	var cols []vtypes.Column
	cols = append(cols, j.Left.Schema().Cols...)
	if j.Type == JoinInner || j.Type == JoinLeftOuter {
		for _, c := range j.Right.Schema().Cols {
			oc := c
			if j.Type == JoinLeftOuter {
				oc.Nullable = true
			}
			cols = append(cols, oc)
		}
	}
	return &vtypes.Schema{Cols: cols}
}

// Children implements Node.
func (j *JoinNode) Children() []Node { return []Node{j.Left, j.Right} }

// SortKey is one ORDER BY term.
type SortKey struct {
	Expr Scalar
	Desc bool
}

// SortNode orders its input.
type SortNode struct {
	Input Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *SortNode) Schema() *vtypes.Schema { return s.Input.Schema() }

// Children implements Node.
func (s *SortNode) Children() []Node { return []Node{s.Input} }

// LimitNode passes at most N rows.
type LimitNode struct {
	Input Node
	N     int64
}

// Schema implements Node.
func (l *LimitNode) Schema() *vtypes.Schema { return l.Input.Schema() }

// Children implements Node.
func (l *LimitNode) Children() []Node { return []Node{l.Input} }

// UnionAllNode concatenates same-schema inputs. The parallel rewriter
// emits it as the algebraic form of the Xchange union; serial engines
// execute children in sequence.
type UnionAllNode struct {
	Inputs []Node
}

// Schema implements Node.
func (u *UnionAllNode) Schema() *vtypes.Schema { return u.Inputs[0].Schema() }

// Children implements Node.
func (u *UnionAllNode) Children() []Node { return u.Inputs }

// RemoteNode is the leaf the distribution rewrite (rewriter.Distribute)
// puts where a shard's partial result enters the coordinator's plan:
// shard Shard runs the statement's below half and streams rows of
// schema Out. Only a compiler given a remote hook (xcompile.Options)
// can execute it.
type RemoteNode struct {
	Shard int
	Out   *vtypes.Schema
}

// Schema implements Node.
func (r *RemoteNode) Schema() *vtypes.Schema { return r.Out }

// Children implements Node.
func (r *RemoteNode) Children() []Node { return nil }

// Explain renders a plan tree as an indented string.
func Explain(n Node) string {
	return explain(n, 0)
}

func explain(n Node, depth int) string {
	pad := ""
	for i := 0; i < depth; i++ {
		pad += "  "
	}
	var line string
	switch t := n.(type) {
	case *ScanNode:
		line = fmt.Sprintf("Scan %s cols=%v", t.Table, t.Cols)
		if t.RowID {
			line += " rowid"
		}
		if t.PartHi > 0 {
			line += fmt.Sprintf(" part=[%d,%d)", t.PartLo, t.PartHi)
		}
		line += est(t.Est)
	case *SelectNode:
		line = fmt.Sprintf("Select %s", t.Pred)
	case *ProjectNode:
		cols := slices.Clone(t.Names) // a '#' column the planner computes shows its expression
		for i, e := range t.Exprs {
			if _, ref := e.(*ColRef); !ref && strings.HasPrefix(cols[i], "#") {
				cols[i] += "=" + e.String()
			}
		}
		line = fmt.Sprintf("Project %v", cols)
	case *AggNode:
		line = fmt.Sprintf("Aggregate groups=%d aggs=%v", len(t.GroupBy), t.Aggs)
		if t.Partial {
			line += " partial"
		}
		line += est(t.Est)
	case *JoinNode:
		line = fmt.Sprintf("HashJoin %s", t.Type)
		if t.BuildLeft {
			line += " build=left"
		}
		line += est(t.Est)
	case *SortNode:
		line = fmt.Sprintf("Sort keys=%d", len(t.Keys))
	case *LimitNode:
		line = fmt.Sprintf("Limit %d", t.N)
	case *UnionAllNode:
		line = fmt.Sprintf("XchgUnion width=%d", len(t.Inputs))
	case *RemoteNode:
		line = fmt.Sprintf("Remote shard=%d cols=%d", t.Shard, t.Out.Len())
	default:
		line = fmt.Sprintf("%T", n)
	}
	out := pad + line + "\n"
	for _, c := range n.Children() {
		out += explain(c, depth+1)
	}
	return out
}

// est renders a planner row estimate; plans made without estimates
// carry none.
func est(rows int64) string {
	if rows == 0 {
		return ""
	}
	return fmt.Sprintf(" est=%d", rows)
}

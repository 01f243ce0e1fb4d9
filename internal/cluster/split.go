package cluster

// The distributed planner: classify a SELECT against the shard map and
// split it into a per-shard partial statement plus a coordinator merge
// statement. The split happens at the AST level because the inter-node
// wire speaks SQL; the algebra-level machinery this mirrors is the
// rewriter's intra-node aggregate parallelization (AggNode.Partial +
// recombination), lifted one level so the "partitions" are remote
// processes instead of goroutines.

import (
	"errors"
	"fmt"
	"strings"

	"vectorwise/internal/sql"
)

// ErrNotDistributable marks a statement shape the splitter cannot fan
// out — set operations and subqueries touching sharded data. Callers
// that run a fixed suite (vwbench -exp cluster) match on it to skip.
var ErrNotDistributable = errors.New(
	"cluster: set operations and subqueries are only supported when every referenced table is replicated")

// planClass says how a SELECT executes against the cluster.
type planClass int

const (
	// classLocal: the statement touches no sharded table, so any single
	// node holds all its data (dimensions are replicated everywhere).
	classLocal planClass = iota
	// classGather: sharded data, no aggregation — every shard runs the
	// statement and the coordinator unions the streams (re-sorting when
	// the statement ordered or limited its output).
	classGather
	// classAggregate: sharded data under GROUP BY/aggregates — shards
	// compute partial aggregates, the coordinator re-aggregates.
	classAggregate
)

// StagingTable is the scratch-DB table the coordinator stages shard
// partials in before running the merge statement over it.
const StagingTable = "_partials"

// distPlan is one SELECT split for distributed execution.
type distPlan struct {
	class planClass
	// shardSQL runs on every shard (classGather/classAggregate) or on
	// one replica set (classLocal).
	shardSQL string
	// mergeSQL, when non-empty, runs on the coordinator's scratch DB
	// over StagingTable filled with the shards' rows.
	mergeSQL string
}

// splitStmt classifies any query statement. Set operations and SELECTs
// with subqueries execute whole on one node, so they are legal only
// over replicated tables (any node holds all the data); plain SELECTs
// take the splitting path.
func splitStmt(stmt sql.Stmt, rawSQL string, m *ShardMap) (*distPlan, error) {
	sel, isSel := stmt.(*sql.SelectStmt)
	if !isSel || containsSubqueries(sel) {
		for _, t := range stmtTables(stmt) {
			if m.Placement(t).Sharded {
				return nil, ErrNotDistributable
			}
		}
		return &distPlan{class: classLocal, shardSQL: rawSQL}, nil
	}
	return split(sel, rawSQL, m)
}

// stmtTables collects every table a query statement references,
// descending through set-operation branches and subqueries.
func stmtTables(stmt sql.Stmt) []string {
	var out []string
	var walkSel func(s *sql.SelectStmt)
	var walkStmt func(s sql.Stmt)
	noteSubs := func(e sql.Expr) {
		walkExpr(e, func(x sql.Expr) {
			switch t := x.(type) {
			case *sql.SubqueryExpr:
				walkSel(t.Sel)
			case *sql.InSubExpr:
				walkSel(t.Sel)
			}
		})
	}
	walkSel = func(s *sql.SelectStmt) {
		for _, tr := range s.From {
			out = append(out, strings.ToLower(tr.Table))
		}
		for _, j := range s.Joins {
			out = append(out, strings.ToLower(j.Table.Table))
		}
		noteSubs(s.Where)
		noteSubs(s.Having)
	}
	walkStmt = func(s sql.Stmt) {
		switch t := s.(type) {
		case *sql.SelectStmt:
			walkSel(t)
		case *sql.SetOpStmt:
			walkStmt(t.Left)
			walkStmt(t.Right)
		}
	}
	walkStmt(stmt)
	return out
}

// containsSubqueries reports whether the SELECT has a subquery in its
// WHERE or HAVING clause.
func containsSubqueries(s *sql.SelectStmt) bool {
	found := false
	note := func(e sql.Expr) {
		walkExpr(e, func(x sql.Expr) {
			switch x.(type) {
			case *sql.SubqueryExpr, *sql.InSubExpr:
				found = true
			}
		})
	}
	note(s.Where)
	note(s.Having)
	return found
}

// split classifies stmt against the shard map and builds its
// distributed plan. rawSQL is the original statement text, forwarded
// verbatim on the classLocal path.
func split(stmt *sql.SelectStmt, rawSQL string, m *ShardMap) (*distPlan, error) {
	sharded, err := shardedTables(stmt, m)
	if err != nil {
		return nil, err
	}
	if len(sharded) == 0 {
		return &distPlan{class: classLocal, shardSQL: rawSQL}, nil
	}
	if hasAggregation(stmt) {
		shard, merge, err := splitAggregate(stmt)
		if err != nil {
			return nil, err
		}
		return &distPlan{
			class:    classAggregate,
			shardSQL: sql.RenderSelect(shard),
			mergeSQL: sql.RenderSelect(merge),
		}, nil
	}
	return splitGather(stmt), nil
}

// shardedTables returns the sharded tables stmt references and verifies
// that any join between two sharded tables is on their shard keys (rows
// that join are then co-located, so the join is shard-local — Vertica's
// identically-segmented join). A cross-shard join would need a
// repartitioning exchange the wire does not have yet.
func shardedTables(stmt *sql.SelectStmt, m *ShardMap) (map[string]Placement, error) {
	sharded := make(map[string]Placement)
	note := func(t string) {
		if p := m.Placement(strings.ToLower(t)); p.Sharded {
			sharded[strings.ToLower(t)] = p
		}
	}
	for _, tr := range stmt.From {
		note(tr.Table)
	}
	for _, j := range stmt.Joins {
		note(j.Table.Table)
	}
	if len(sharded) <= 1 {
		return sharded, nil
	}
	// Every join clause whose table is sharded must carry an equality
	// between two shard-key columns. Column names are table-unique in
	// this dialect, so a name-level check suffices.
	keyCols := make(map[string]bool)
	for _, p := range sharded {
		keyCols[p.KeyCol] = true
	}
	for _, j := range stmt.Joins {
		p := m.Placement(strings.ToLower(j.Table.Table))
		if !p.Sharded {
			continue
		}
		ok := false
		for _, on := range j.On {
			l, lok := on.L.(*sql.Ident)
			r, rok := on.R.(*sql.Ident)
			if lok && rok && keyCols[strings.ToLower(l.Name)] && keyCols[strings.ToLower(r.Name)] {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf(
				"cluster: join with sharded table %s is not on its shard key (%s); cross-shard joins are unsupported",
				j.Table.Table, p.KeyCol)
		}
	}
	return sharded, nil
}

// hasAggregation reports whether stmt groups or aggregates.
func hasAggregation(stmt *sql.SelectStmt) bool {
	if len(stmt.GroupBy) > 0 {
		return true
	}
	for _, it := range stmt.Items {
		if !it.Star && containsAgg(it.Expr) {
			return true
		}
	}
	return false
}

// splitGather builds the plan for sharded non-aggregate SELECTs. The
// union of shard streams is already the answer; ORDER BY and LIMIT need
// a coordinator merge pass because per-shard order does not compose
// into global order. The staging table only carries the statement's
// output columns, so any ORDER BY key outside them — a column the
// projection dropped, or an expression — ships as a hidden _sN column
// the merge sorts by and then projects away.
func splitGather(stmt *sql.SelectStmt) *distPlan {
	if len(stmt.OrderBy) == 0 && stmt.Limit < 0 {
		return &distPlan{class: classGather, shardSQL: sql.RenderSelect(stmt)}
	}
	shard := *stmt
	shard.Items = append([]sql.SelectItem(nil), stmt.Items...)

	// The staging schema: one column per non-star output. A star ships
	// every base column, making any ORDER BY key resolvable as-is.
	hasStar := false
	outNames := make(map[string]bool)
	for _, it := range stmt.Items {
		if it.Star {
			hasStar = true
			continue
		}
		outNames[strings.ToLower(outputName(it))] = true
	}
	stagingResolvable := func(e sql.Expr) bool {
		if hasStar {
			return true
		}
		ok := true
		walkExpr(e, func(x sql.Expr) {
			if id, isID := x.(*sql.Ident); isID && !outNames[strings.ToLower(id.Name)] {
				ok = false
			}
		})
		return ok
	}
	mergeOrder := make([]sql.OrderItem, len(stmt.OrderBy))
	hidden := 0
	for i, o := range stmt.OrderBy {
		if stagingResolvable(o.Expr) {
			mergeOrder[i] = o
			continue
		}
		name := fmt.Sprintf("_s%d", hidden)
		hidden++
		shard.Items = append(shard.Items, sql.SelectItem{Expr: o.Expr, Alias: name})
		mergeOrder[i] = sql.OrderItem{Expr: &sql.Ident{Name: name}, Desc: o.Desc}
	}
	mergeItems := []sql.SelectItem{{Star: true}}
	if hidden > 0 {
		// Hidden sort keys must not leak into the result set.
		mergeItems = nil
		for _, it := range stmt.Items {
			mergeItems = append(mergeItems, sql.SelectItem{Expr: &sql.Ident{Name: outputName(it)}})
		}
	}
	if stmt.Limit < 0 {
		// Without a LIMIT the per-shard sort is pure waste; with one it
		// bounds what each shard ships (top-N per shard re-merged is
		// top-N globally).
		shard.OrderBy = nil
	}
	merge := &sql.SelectStmt{
		Items:   mergeItems,
		From:    []sql.TableRef{{Table: StagingTable}},
		OrderBy: mergeOrder,
		Limit:   stmt.Limit,
	}
	return &distPlan{
		class:    classGather,
		shardSQL: sql.RenderSelect(&shard),
		mergeSQL: sql.RenderSelect(merge),
	}
}

// splitAggregate splits an aggregating SELECT into the per-shard
// partial statement and the coordinator merge statement.
//
// Shard side: SELECT g0 AS _g0, ..., partial-aggs AS _p0, ...
// with the original FROM/JOIN/WHERE/GROUP BY and no HAVING/ORDER/LIMIT.
// Merge side: the original select list with every aggregate replaced by
// its re-aggregation over the partial columns and every group
// expression replaced by its _gN column, over StagingTable, grouped by
// the _gN columns, with the original HAVING/ORDER BY/LIMIT rewritten
// the same way.
//
// Recombination rules (the SQL-level mirror of the rewriter's
// parallelizeAgg):
//
//	SUM(x)   → shard SUM(x)            merge SUM(_p)
//	COUNT(x) → shard COUNT(x)          merge SUM(_p)
//	COUNT(*) → shard COUNT(*)          merge SUM(_p)
//	MIN(x)   → shard MIN(x)            merge MIN(_p)
//	MAX(x)   → shard MAX(x)            merge MAX(_p)
//	AVG(x)   → shard SUM(1.0*(x)), COUNT(x)   merge SUM(_ps)/SUM(_pc)
//
// The 1.0* in AVG's partial forces a DOUBLE sum so the merge division
// is float division whatever x's type. Re-aggregation ignores NULLs, so
// the mandatory one-row result of a global aggregate on an empty shard
// (COUNT=0, SUM=NULL) merges away without special cases.
func splitAggregate(stmt *sql.SelectStmt) (shard, merge *sql.SelectStmt, err error) {
	if len(stmt.From) != 1 {
		return nil, nil, fmt.Errorf("cluster: expected a single FROM table")
	}

	// Group expressions, keyed by canonical rendering.
	groupIdx := make(map[string]int)
	for i, g := range stmt.GroupBy {
		groupIdx[sql.RenderExpr(g)] = i
	}

	shard = &sql.SelectStmt{
		From:    stmt.From,
		Joins:   stmt.Joins,
		Where:   stmt.Where,
		GroupBy: stmt.GroupBy,
		Limit:   -1,
	}
	for i, g := range stmt.GroupBy {
		shard.Items = append(shard.Items, sql.SelectItem{Expr: g, Alias: fmt.Sprintf("_g%d", i)})
	}

	// Distinct aggregate calls across select list, HAVING and ORDER BY,
	// each mapped to its merge-side replacement expression.
	mergeAgg := make(map[string]sql.Expr)
	collect := func(e sql.Expr) error {
		var werr error
		walkExpr(e, func(x sql.Expr) {
			a, ok := x.(*sql.AggCall)
			if !ok || werr != nil {
				return
			}
			key := sql.RenderExpr(a)
			if _, done := mergeAgg[key]; done {
				return
			}
			switch a.Fn {
			case "SUM", "MIN", "MAX":
				p := nextPartial(shard, &sql.AggCall{Fn: a.Fn, Arg: a.Arg})
				mergeAgg[key] = &sql.AggCall{Fn: mergeFn(a.Fn), Arg: p}
			case "COUNT":
				p := nextPartial(shard, &sql.AggCall{Fn: "COUNT", Arg: a.Arg})
				mergeAgg[key] = &sql.AggCall{Fn: "SUM", Arg: p}
			case "AVG":
				ps := nextPartial(shard, &sql.AggCall{Fn: "SUM", Arg: &sql.BinExpr{
					Op: "*", L: &sql.NumLit{Text: "1.0"}, R: a.Arg}})
				pc := nextPartial(shard, &sql.AggCall{Fn: "COUNT", Arg: a.Arg})
				mergeAgg[key] = &sql.BinExpr{
					Op: "/",
					L:  &sql.AggCall{Fn: "SUM", Arg: ps},
					R:  &sql.AggCall{Fn: "SUM", Arg: pc},
				}
			default:
				werr = fmt.Errorf("cluster: cannot distribute aggregate %s", a.Fn)
			}
		})
		return werr
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("cluster: SELECT * cannot mix with aggregation")
		}
		if err := collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, nil, err
		}
	}
	for _, o := range stmt.OrderBy {
		if err := collect(o.Expr); err != nil {
			return nil, nil, err
		}
	}

	// rewrite maps an original expression onto the staging schema:
	// whole-expression matches of a group expression become its _gN
	// column, aggregate calls become their merge replacement, and
	// everything else recurses.
	var rewrite func(e sql.Expr) sql.Expr
	rewrite = func(e sql.Expr) sql.Expr {
		if i, ok := groupIdx[sql.RenderExpr(e)]; ok {
			return &sql.Ident{Name: fmt.Sprintf("_g%d", i)}
		}
		if a, ok := e.(*sql.AggCall); ok {
			return mergeAgg[sql.RenderExpr(a)]
		}
		switch t := e.(type) {
		case *sql.BinExpr:
			return &sql.BinExpr{Op: t.Op, L: rewrite(t.L), R: rewrite(t.R)}
		case *sql.NotExpr:
			return &sql.NotExpr{In: rewrite(t.In)}
		case *sql.BetweenExpr:
			return &sql.BetweenExpr{In: rewrite(t.In), Lo: rewrite(t.Lo), Hi: rewrite(t.Hi)}
		case *sql.InExpr:
			list := make([]sql.Expr, len(t.List))
			for i, m := range t.List {
				list[i] = rewrite(m)
			}
			return &sql.InExpr{In: rewrite(t.In), List: list}
		case *sql.LikeExpr:
			return &sql.LikeExpr{In: rewrite(t.In), Pattern: t.Pattern, Negate: t.Negate}
		case *sql.IsNullExpr:
			return &sql.IsNullExpr{In: rewrite(t.In), Negate: t.Negate}
		case *sql.CaseExpr:
			return &sql.CaseExpr{Cond: rewrite(t.Cond), Then: rewrite(t.Then), Else: rewrite(t.Else)}
		case *sql.FuncCall:
			return &sql.FuncCall{Fn: t.Fn, Arg: rewrite(t.Arg)}
		}
		return e
	}

	merge = &sql.SelectStmt{
		From:  []sql.TableRef{{Table: StagingTable}},
		Limit: stmt.Limit,
	}
	for _, it := range stmt.Items {
		merge.Items = append(merge.Items, sql.SelectItem{
			Expr:  rewrite(it.Expr),
			Alias: safeAlias(outputName(it)),
		})
	}
	for i := range stmt.GroupBy {
		merge.GroupBy = append(merge.GroupBy, &sql.Ident{Name: fmt.Sprintf("_g%d", i)})
	}
	if stmt.Having != nil {
		merge.Having = rewrite(stmt.Having)
	}
	// ORDER BY on the merge side runs after the merge projection, so it
	// must name output columns — a staging column like _g0 is renamed
	// away by then.
	for _, o := range stmt.OrderBy {
		e, err := mergeOrderExpr(stmt, merge, o.Expr, rewrite)
		if err != nil {
			return nil, nil, err
		}
		merge.OrderBy = append(merge.OrderBy, sql.OrderItem{Expr: e, Desc: o.Desc})
	}
	return shard, merge, nil
}

// mergeOrderExpr maps one ORDER BY expression onto the merge statement's
// output: select-alias references pass through, expressions matching a
// select item become that item's output column, anything else maps onto
// the staging schema.
func mergeOrderExpr(stmt, merge *sql.SelectStmt, e sql.Expr, rewrite func(sql.Expr) sql.Expr) (sql.Expr, error) {
	if id, ok := e.(*sql.Ident); ok {
		for _, it := range stmt.Items {
			if strings.EqualFold(it.Alias, id.Name) {
				return e, nil
			}
		}
	}
	key := sql.RenderExpr(e)
	for i, it := range stmt.Items {
		if sql.RenderExpr(it.Expr) == key {
			if a := merge.Items[i].Alias; a != "" {
				return &sql.Ident{Name: a}, nil
			}
			return nil, fmt.Errorf("cluster: ORDER BY expression %s needs an alias in the select list", key)
		}
	}
	return rewrite(e), nil
}

// nextPartial appends one partial-aggregate item to the shard statement
// and returns the staging column reference that carries it.
func nextPartial(shard *sql.SelectStmt, agg *sql.AggCall) *sql.Ident {
	name := fmt.Sprintf("_p%d", len(shard.Items)-len(shard.GroupBy))
	shard.Items = append(shard.Items, sql.SelectItem{Expr: agg, Alias: name})
	return &sql.Ident{Name: name}
}

func mergeFn(fn string) string {
	if fn == "SUM" {
		return "SUM"
	}
	return fn // MIN, MAX re-aggregate with themselves
}

// outputName mirrors the planner's output-column naming so the
// coordinator's result header matches single-node execution.
func outputName(item sql.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if id, ok := item.Expr.(*sql.Ident); ok {
		return id.Name
	}
	if ag, ok := item.Expr.(*sql.AggCall); ok {
		return strings.ToLower(ag.Fn)
	}
	return "expr"
}

// safeAlias returns name if it renders as a legal alias (aggregate
// names like "sum" are keywords and cannot follow AS), else "".
func safeAlias(name string) string {
	if _, err := sql.Parse("SELECT 1 AS " + name + " FROM t"); err != nil {
		return ""
	}
	return name
}

// walkExpr visits e and every sub-expression.
func walkExpr(e sql.Expr, fn func(sql.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch t := e.(type) {
	case *sql.BinExpr:
		walkExpr(t.L, fn)
		walkExpr(t.R, fn)
	case *sql.NotExpr:
		walkExpr(t.In, fn)
	case *sql.BetweenExpr:
		walkExpr(t.In, fn)
		walkExpr(t.Lo, fn)
		walkExpr(t.Hi, fn)
	case *sql.InExpr:
		walkExpr(t.In, fn)
		for _, m := range t.List {
			walkExpr(m, fn)
		}
	case *sql.LikeExpr:
		walkExpr(t.In, fn)
	case *sql.IsNullExpr:
		walkExpr(t.In, fn)
	case *sql.CaseExpr:
		walkExpr(t.Cond, fn)
		walkExpr(t.Then, fn)
		walkExpr(t.Else, fn)
	case *sql.AggCall:
		walkExpr(t.Arg, fn)
	case *sql.FuncCall:
		walkExpr(t.Arg, fn)
	case *sql.InSubExpr:
		// The probe side is an ordinary expression; the subquery's own
		// tree (like SubqueryExpr's) is the visitor's to descend if it
		// cares — see stmtTables.
		walkExpr(t.In, fn)
	}
}

// containsAgg reports whether e contains an aggregate call.
func containsAgg(e sql.Expr) bool {
	found := false
	walkExpr(e, func(x sql.Expr) {
		if _, ok := x.(*sql.AggCall); ok {
			found = true
		}
	})
	return found
}

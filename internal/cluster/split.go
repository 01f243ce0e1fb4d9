package cluster

// Classification: which statements one node can answer whole, which
// fan out to every shard, and which the cluster cannot run. How a
// fanned-out statement divides into a per-shard half and a coordinator
// half is not decided here — that is rewriter.Split, the same rule that
// divides a plan over the cores of one node.

import (
	"errors"
	"fmt"
	"strings"

	"vectorwise/internal/sql"
)

// ErrNotDistributable marks a statement the coordinator refuses by its
// shape alone: set operations and subqueries touching sharded data,
// joins between sharded tables off their shard keys, parameter
// placeholders, and a statement sent to the wrong one of Query and Exec.
// It is the client's fault (HTTP 400). Callers that run a fixed suite
// (vwbench -exp cluster) match on it to skip.
var ErrNotDistributable = errors.New("cluster: the coordinator cannot run this statement")

// classify reports whether stmt must fan out to every shard (true) or
// can run whole on any one node because it touches replicated tables
// only (false). Set operations and SELECTs with subqueries execute
// whole on one node, so they are legal only over replicated tables;
// joins between sharded tables must be co-located (touchesShards).
func classify(stmt sql.Stmt, m *ShardMap) (sharded bool, err error) {
	sel, isSel := stmt.(*sql.SelectStmt)
	if !isSel || sql.ContainsSubquery(sel.Where) || sql.ContainsSubquery(sel.Having) {
		for _, t := range stmtTables(stmt) {
			if m.Placement(t).Sharded {
				return false, fmt.Errorf("%w: set operations and subqueries are only supported when every referenced table is replicated",
					ErrNotDistributable)
			}
		}
		return false, nil
	}
	return touchesShards(sel, m)
}

// stmtTables collects every table a query statement references,
// descending through set-operation branches and subqueries.
func stmtTables(stmt sql.Stmt) []string {
	var out []string
	var walkSel func(s *sql.SelectStmt)
	var walkStmt func(s sql.Stmt)
	noteSubs := func(e sql.Expr) {
		sql.WalkExprs(e, func(x sql.Expr) {
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

// touchesShards reports whether stmt references a sharded table, and
// verifies that any join between two sharded tables is on their shard
// keys (rows that join are then co-located, so the join is shard-local
// — Vertica's identically-segmented join). A cross-shard join would
// need a repartitioning exchange the wire does not have yet.
func touchesShards(stmt *sql.SelectStmt, m *ShardMap) (bool, error) {
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
		return len(sharded) == 1, nil
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
			return false, fmt.Errorf("%w: join with sharded table %s is not on its shard key (%s); cross-shard joins are unsupported",
				ErrNotDistributable, j.Table.Table, p.KeyCol)
		}
	}
	return true, nil
}

package main

import (
	"context"
	"runtime"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/algebra"
	"vectorwise/internal/core"
	"vectorwise/internal/plancache"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// The staged driver replays an embedded SELECT by calling, one span each,
// what DB.QueryContext calls: the front end (normalize, parse, plan,
// rewrite) that a plan-cache miss pays, and the execution path (normalize,
// bind, compile, open, first batch, drain, close) every statement pays. It
// compiles against the live catalog, so it is only valid while no client
// is writing.
type stager struct {
	tr *tracer
	db *vectorwise.DB
}

// Span names of the stages; the per-layer metrics are keyed by them.
const (
	stNormalize = "plancache.normalize"
	stParse     = "sql.parse"
	stPlan      = "sql.plan"
	stRewrite   = "rewriter.rewrite"
	stBind      = "algebra.bind"
	stCompile   = "xcompile.compile"
	stOpen      = "core.open"
	stFirst     = "core.first_batch"
	stDrain     = "core.drain"
	stClose     = "core.close"
)

var coreStages = []string{stOpen, stFirst, stDrain, stClose}

// staged is what one replayed root span yields.
type staged struct {
	total   time.Duration
	stage   map[string]time.Duration
	rows    int64
	batches int64
	allocMB float64
	scan    storage.ScanStatsSnapshot
	hash    []core.HashTableStat
}

func (s *stager) span(parent *span, name string, f func()) time.Duration {
	sp := s.tr.child(parent, name)
	f()
	s.tr.end(sp)
	return sp.dur()
}

// front runs the front end a plan-cache miss pays and returns the plan
// template the execution path binds.
func (s *stager) front(kind, text string, parallelism int) (algebra.Node, staged, error) {
	out := staged{stage: map[string]time.Duration{}}
	root := s.tr.root("front:" + kind)
	var norm string
	out.stage[stNormalize] = s.span(root, stNormalize, func() { norm = plancache.Normalize(text) })
	var st *sql.Statement
	var err error
	out.stage[stParse] = s.span(root, stParse, func() { st, err = sql.Parse(norm) })
	if err != nil {
		return nil, out, err
	}
	defer st.Release()
	var plan algebra.Node
	out.stage[stPlan] = s.span(root, stPlan, func() {
		plan, err = (&sql.Planner{Cat: s.db.Catalog()}).PlanQuery(st.AST)
	})
	if err != nil {
		return nil, out, err
	}
	out.stage[stRewrite] = s.span(root, stRewrite, func() {
		plan = rewriter.SimplifyPlan(plan)
		if parallelism > 1 {
			plan = rewriter.Parallelize(plan, s.db.Catalog(), parallelism)
		}
	})
	s.tr.end(root)
	out.total = root.dur()
	return plan, out, nil
}

// exec runs the execution path of a statement whose plan template is
// cached: what every execution pays, hit or miss.
func (s *stager) exec(kind, text string, plan algebra.Node, vals []vtypes.Value) (staged, error) {
	out := staged{stage: map[string]time.Duration{}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := s.tr.root("exec:" + kind)
	out.stage[stNormalize] = s.span(root, stNormalize, func() { _ = plancache.Normalize(text) })
	var err error
	if len(vals) > 0 {
		out.stage[stBind] = s.span(root, stBind, func() { plan, err = algebra.BindParams(plan, vals) })
		if err != nil {
			return out, err
		}
	}
	scan, hash := &storage.ScanStats{}, &core.HashStatsSink{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var op core.Operator
	out.stage[stCompile] = s.span(root, stCompile, func() {
		op, err = xcompile.Compile(plan, s.db.Catalog(), xcompile.Options{
			Fetch: s.db.BufferManager(), Ctx: ctx, ScanStats: scan, HashStats: hash,
		})
	})
	if err != nil {
		return out, err
	}
	out.stage[stOpen] = s.span(root, stOpen, func() { err = op.Open() })
	if err != nil {
		op.Close()
		return out, err
	}
	count := func(b *vector.Batch) {
		if b != nil {
			out.rows += int64(b.N)
			out.batches++
		}
	}
	var b *vector.Batch
	out.stage[stFirst] = s.span(root, stFirst, func() { b, err = op.Next(); count(b) })
	if err == nil && b != nil {
		out.stage[stDrain] = s.span(root, stDrain, func() {
			for {
				if b, err = op.Next(); err != nil || b == nil {
					return
				}
				count(b)
			}
		})
	}
	out.stage[stClose] = s.span(root, stClose, func() {
		if cerr := op.Close(); err == nil {
			err = cerr
		}
	})
	s.tr.end(root)
	runtime.ReadMemStats(&m1)
	out.total = root.dur()
	out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	out.scan, out.hash = scan.Snapshot(), hash.Snapshot()
	root.Counts = map[string]int64{
		"rows": out.rows, "batches": out.batches,
		"groups_scanned": out.scan.GroupsScanned, "groups_pruned": out.scan.GroupsPruned,
	}
	return out, err
}

// replay plans a statement once, then executes it reps times (before runs
// untimed ahead of each execution) and returns the fastest execution.
func (s *stager) replay(kind, text string, parallelism, reps int, before func(), args ...any) (staged, error) {
	plan, _, err := s.front(kind, text, parallelism)
	if err != nil {
		return staged{}, err
	}
	vals := toValues(args)
	var best staged
	for i := 0; i < reps; i++ {
		if before != nil {
			before()
		}
		ex, err := s.exec(kind, text, plan, vals)
		if err != nil {
			return staged{}, err
		}
		if i == 0 || ex.total < best.total {
			best = ex
		}
	}
	return best, nil
}

// toValues boxes statement arguments the way the engine's binder does for
// the kinds the benchmark passes.
func toValues(args []any) []vtypes.Value {
	vals := make([]vtypes.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int64:
			vals[i] = vtypes.I64Value(v)
		case float64:
			vals[i] = vtypes.F64Value(v)
		case string:
			vals[i] = vtypes.StrValue(v)
		case vtypes.Value:
			vals[i] = v
		default:
			panic("bench: unsupported argument type")
		}
	}
	return vals
}

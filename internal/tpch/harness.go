package tpch

import (
	"fmt"
	"strings"
	"time"

	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/matengine"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/testutil"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// Engine selects which executor runs a plan.
type Engine uint8

// Engines under comparison (the paper's §I-A triangle).
const (
	// EngineVectorized is the X100 core.
	EngineVectorized Engine = iota
	// EngineTuple is the tuple-at-a-time Volcano baseline.
	EngineTuple
	// EngineMaterialized is the column-at-a-time materializing baseline.
	EngineMaterialized
)

func (e Engine) String() string {
	return [...]string{"vectorized", "tuple", "materialized"}[e]
}

// RunOptions configure a query execution.
type RunOptions struct {
	// Engine picks the executor.
	Engine Engine
	// Parallel > 1 applies the parallel rewrite (vectorized engine
	// honors it with real threads; serial engines execute the partitions
	// sequentially, which isolates the rewrite overhead).
	Parallel int
	// VecSize overrides the vectorized engine's vector size.
	VecSize int
	// Fetch interposes a buffer manager on scans — pass the DB's so the
	// harness exercises the same chunk-access path the server does.
	Fetch storage.ChunkFetcher
	// ScanStats, when non-nil, receives row-group scanned/pruned
	// counters (vectorized engine only).
	ScanStats *storage.ScanStats
	// NoPrune disables min/max data skipping while keeping the in-scan
	// filters (differential baseline for pruning itself).
	NoPrune bool
}

// RunQuery executes one suite query and returns its rows and duration.
// The plan is the one DB.Query would run: the statement's SQL through
// the parser and the planner (which simplifies predicates and prunes
// columns), then the parallel
// rewrite when asked. Planning is not timed; execution is.
func RunQuery(cat *catalog.Catalog, q SQLQuery, opts RunOptions) ([]vtypes.Row, time.Duration, error) {
	stmt, err := sql.Parse(q.SQL)
	if err != nil {
		return nil, 0, err
	}
	plan, err := (&sql.Planner{Cat: cat}).PlanQuery(stmt.AST)
	if err != nil {
		return nil, 0, err
	}
	if opts.Parallel > 1 {
		plan = rewriter.Parallelize(plan, cat, opts.Parallel)
	}
	start := time.Now()
	var rows []vtypes.Row
	switch opts.Engine {
	case EngineVectorized:
		var op core.Operator
		op, err = xcompile.Compile(plan, cat, xcompile.Options{
			VecSize:   opts.VecSize,
			Fetch:     opts.Fetch,
			ScanStats: opts.ScanStats,
			NoPrune:   opts.NoPrune,
		})
		if err == nil {
			rows, err = core.Collect(op)
		}
	case EngineTuple:
		rows, err = tupleengine.Run(plan, cat)
	case EngineMaterialized:
		rows, err = matengine.Run(plan, cat)
	}
	return rows, time.Since(start), err
}

// Validate cross-checks every suite query across all three engines on
// the given catalog, returning an error naming the first divergence.
// TestSuiteValidatesAcrossEngines runs it as its oracle.
func Validate(cat *catalog.Catalog) error {
	for _, q := range SQLSuite() {
		vrows, _, err := RunQuery(cat, q, RunOptions{Engine: EngineVectorized})
		if err != nil {
			return fmt.Errorf("%s vectorized: %w", q.Name, err)
		}
		trows, _, err := RunQuery(cat, q, RunOptions{Engine: EngineTuple})
		if err != nil {
			return fmt.Errorf("%s tuple: %w", q.Name, err)
		}
		mrows, _, err := RunQuery(cat, q, RunOptions{Engine: EngineMaterialized})
		if err != nil {
			return fmt.Errorf("%s materialized: %w", q.Name, err)
		}
		if err := testutil.SameRows("tpch "+q.Name, vrows, trows); err != nil {
			return err
		}
		if err := testutil.SameRows("tpch "+q.Name, vrows, mrows); err != nil {
			return err
		}
		// The parallel plan must agree with the serial one: in order
		// when the statement sorts, as multisets otherwise (parallel
		// unions reorder groups).
		prows, _, err := RunQuery(cat, q, RunOptions{Engine: EngineVectorized, Parallel: 2})
		if err != nil {
			return fmt.Errorf("%s parallel: %w", q.Name, err)
		}
		same := testutil.SameRowsUnordered
		if strings.Contains(q.SQL, "ORDER BY") {
			same = testutil.SameRows
		}
		if err := same("tpch "+q.Name+"-parallel", vrows, prows); err != nil {
			return err
		}
		// Min/max data skipping must not change results.
		nrows, _, err := RunQuery(cat, q, RunOptions{Engine: EngineVectorized, NoPrune: true})
		if err != nil {
			return fmt.Errorf("%s noprune: %w", q.Name, err)
		}
		if err := testutil.SameRows("tpch "+q.Name+"-noprune", vrows, nrows); err != nil {
			return err
		}
	}
	return nil
}

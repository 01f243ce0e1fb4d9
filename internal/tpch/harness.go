package tpch

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
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
	// NoPrune disables min/max data skipping while keeping the pushed
	// scan filters (differential baseline for pruning itself).
	NoPrune bool
}

// RunQuery executes one suite query and returns its rows and duration.
// The plan is the one DB.Query would run: the statement's SQL through
// the parser and the planner (which simplifies, pushes sargable
// predicates into scan filters and prunes columns), then the parallel
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

// PowerResult is one power run: each query once, in order.
type PowerResult struct {
	SF        float64
	Engine    Engine
	Durations map[string]time.Duration
	// QphPower is the TPC-H power metric adapted to the implemented
	// query count: (3600 × SF × Nq/22) / geomean(seconds).
	QphPower float64
	Total    time.Duration
}

// PowerRun executes the suite once on one engine.
func PowerRun(cat *catalog.Catalog, sf float64, opts RunOptions) (*PowerResult, error) {
	res := &PowerResult{SF: sf, Engine: opts.Engine, Durations: make(map[string]time.Duration)}
	logSum := 0.0
	n := 0
	for _, q := range SQLSuite() {
		_, d, err := RunQuery(cat, q, opts)
		if err != nil {
			return nil, fmt.Errorf("tpch: %s on %v: %w", q.Name, opts.Engine, err)
		}
		res.Durations[q.Name] = d
		res.Total += d
		logSum += math.Log(d.Seconds())
		n++
	}
	geo := math.Exp(logSum / float64(n))
	res.QphPower = 3600 * sf * float64(n) / 22 / geo
	return res, nil
}

// ThroughputResult is a multi-stream throughput run.
type ThroughputResult struct {
	SF      float64
	Engine  Engine
	Streams int
	Total   time.Duration
	// QphThroughput = (streams × Nq × 3600 × SF × Nq/22) / elapsed,
	// following the spec's shape with the implemented query count.
	QphThroughput float64
}

// ThroughputRun executes `streams` concurrent query streams.
func ThroughputRun(cat *catalog.Catalog, sf float64, streams int, opts RunOptions) (*ThroughputResult, error) {
	if streams <= 0 {
		streams = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	start := time.Now()
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			suite := SQLSuite()
			// Each stream runs the suite in a rotated order, like the
			// spec's stream permutations.
			for i := range suite {
				q := suite[(i+stream)%len(suite)]
				if _, _, err := RunQuery(cat, q, opts); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	n := len(SQLSuite())
	qph := float64(streams*n) * 3600 * sf * float64(n) / 22 / elapsed.Seconds()
	return &ThroughputResult{
		SF: sf, Engine: opts.Engine, Streams: streams,
		Total: elapsed, QphThroughput: qph,
	}, nil
}

// QphH combines power and throughput the TPC-H way (geometric mean).
func QphH(power *PowerResult, tput *ThroughputResult) float64 {
	return math.Sqrt(power.QphPower * tput.QphThroughput)
}

// Validate cross-checks every suite query across all three engines on
// the given catalog, returning an error naming the first divergence.
// The experiment harness runs it before timing anything.
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

// Package vectorwise is an embeddable analytical database engine that
// reproduces the system described in "Vectorwise: a Vectorized
// Analytical DBMS" (Zukowski, van de Wiel, Boncz — ICDE 2012): an
// X100-style vectorized execution core over compressed PAX/DSM column
// storage, with Positional-Delta-Tree transactions, a write-ahead log,
// cooperative scans, a rule-based rewriter with Volcano-style multi-core
// parallelism, and a SQL frontend with a planner and a cross-compiler
// into the vectorized algebra.
//
// Quickstart:
//
//	db := vectorwise.OpenMemory()
//	db.Exec(`CREATE TABLE t (k BIGINT, v DOUBLE)`)
//	db.Exec(`INSERT INTO t VALUES (1, 2.5), (2, 4.0)`)
//	res, _ := db.Query(`SELECT k, SUM(v) s FROM t GROUP BY k ORDER BY k`)
//	for _, row := range res.Rows { fmt.Println(row) }
//
// Repeated statements should use placeholders so the plan cache
// amortizes the SQL front end away (see DB.Prepare):
//
//	stmt, _ := db.Prepare(`SELECT v FROM t WHERE k = ?`)
//	res, _ = stmt.Query(int64(2)) // planned once, bound per call
//
// Large or latency-sensitive results should stream through a cursor
// instead of collecting: DB.QueryContext returns a Rows whose NextBatch
// hands out the engine's own vector batches (no boxing) and whose
// context cancels the statement between batches:
//
//	rows, _ := db.QueryContext(ctx, `SELECT k, v FROM t`)
//	defer rows.Close()
//	for {
//		b, err := rows.NextBatch()
//		if err != nil || b == nil { break }
//		_ = b.Vecs[1].F64 // typed columnar access, zero copies
//	}
//
// DB is safe for concurrent use (see the DB type for the reader/writer
// contract). To serve a database over the network, see cmd/vwserve —
// an HTTP/JSON front end with sessions, timeouts, and admission
// control built on internal/server.
package vectorwise

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"vectorwise/internal/algebra"
	"vectorwise/internal/bufmgr"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/pdt"
	"vectorwise/internal/plancache"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/txn"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/wal"
)

// DB is a database instance. All exported methods are safe for
// concurrent use by multiple goroutines.
//
// # Concurrency model
//
// Reads run against immutable epoch snapshots; writes serialize under
// an internal RWMutex:
//
//   - Read paths — [DB.Query], [DB.QueryContext], [DB.Explain] — take
//     the shared read lock only to resolve and compile the statement.
//     At open time the statement pins the current epoch snapshot (the
//     stable image plus frozen PDT layer stack of every table, all
//     immutable once published) and the lock is released before the
//     first batch is pulled. An open streaming cursor ([Rows])
//     therefore never blocks writers: it holds a snapshot reference,
//     not a lock, and sees exactly the data epoch it pinned no matter
//     how many commits, tuple-mover folds or stable-image swaps happen
//     while it streams. Superseded snapshots are reclaimed when their
//     last cursor closes.
//   - Write paths — [DB.Exec] (CREATE/INSERT/UPDATE/DELETE),
//     [DB.LoadBatch], [DB.CopyFrom], [DB.Checkpoint], [DB.MoveTuples]
//     install windows, [DB.RegisterTable], [DB.SetParallelism],
//     [DB.Close] — serialize under the exclusive write lock. A writer
//     therefore never observes a half-applied DDL or a torn layer
//     swap. Commits install new PDT tail layers in O(own writes);
//     folding layers and rebuilding stable images is the tuple mover's
//     job (mover.go; see [DB.SetMoverInterval]), which in the
//     background does its heavy work on pinned state off-line and
//     takes the write lock only for pointer-swap install windows.
//   - [DB.Catalog] and [DB.BufferManager] are plain accessors that
//     take no lock; the handles they return are internally
//     synchronized for the operations queries perform.
//
// Statement-level isolation is snapshot-per-statement: a SELECT that
// starts before an UPDATE commits sees the pre-update image; one that
// starts after sees all of it. There are no cross-statement
// transactions: each INSERT/UPDATE/DELETE is one txn.Txn over one
// table, begun and committed under the write lock, so commits never
// interleave and need no validation.
type DB struct {
	// mu is the writer gate described in the type comment.
	// Lock ordering: db.moveMu before db.mu before db.snapMu before any
	// internal package mutex (catalog.Catalog.mu, txn.Manager.mu,
	// bufmgr.Manager.mu); no internal package calls back into DB.
	mu sync.RWMutex
	// moveMu serializes stable-image reorganizations — mover passes,
	// checkpoints, bulk loads (see mover.go).
	moveMu sync.Mutex

	cat *catalog.Catalog
	txm *txn.Manager
	buf *bufmgr.Manager
	log *wal.Log
	dir string

	// snapMu guards the current epoch snapshot and all snapshot
	// refcounts (see snapshot.go).
	snapMu sync.Mutex
	cur    *dbSnapshot

	// moverMu guards the tuple mover's control state and counters
	// (see mover.go).
	moverMu        sync.Mutex
	moverStop      chan struct{}
	moverDone      chan struct{}
	moverThreshold int
	moverStats     MoverStats
	moverFail      func(stage string) error
	// plans caches compiled statements keyed by (normalized SQL, schema
	// epoch, parallelism): optimized plan templates for SELECTs, parsed
	// ASTs for DDL/DML. The cache is internally synchronized; DDL and
	// stable-image swaps bump the catalog epoch so stale entries become
	// unreachable (see internal/plancache).
	plans *plancache.Cache
	// Parallelism is the worker count the parallel rewriter targets for
	// Query; defaults to GOMAXPROCS. Set to 1 to force serial plans.
	//
	// Mutating the field directly is only safe before the DB is shared
	// between goroutines; afterwards use [DB.SetParallelism].
	Parallelism int

	// scanStats accumulates row-group outcomes (scanned vs pruned by
	// min/max statistics) across all queries; see DB.ScanStats.
	scanStats storage.ScanStats
	// hashStats accumulates hash-table counters (tables built, entries,
	// resizes, longest probe) across all queries; see DB.HashStats.
	hashStats core.HashStatsTotals
	// noSkip disables data skipping for new statements (see
	// DB.SetDataSkipping). Guarded by mu like Parallelism.
	noSkip bool
}

// Result is a query result set.
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Rows are the boxed result rows.
	Rows []vtypes.Row
}

// DefaultPlanCacheCapacity bounds the statement/plan cache of a new DB.
const DefaultPlanCacheCapacity = 256

// OpenMemory creates an in-memory database (no WAL durability). The
// background tuple mover starts stopped — enable it with
// [DB.SetMoverInterval] or drive it manually with [DB.MoveTuples];
// commits past the inline layer cap still fold on their own.
func OpenMemory() *DB {
	return &DB{
		cat:            catalog.New(),
		txm:            txn.NewManager(nil),
		buf:            bufmgr.New(0),
		plans:          plancache.New(DefaultPlanCacheCapacity),
		Parallelism:    runtime.GOMAXPROCS(0),
		moverThreshold: DefaultMoverThreshold,
	}
}

// Open loads (or initializes) a database directory: one .vwt file per
// table plus a write-ahead log replayed on open.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, recs, err := wal.Open(filepath.Join(dir, "vectorwise.wal"))
	if err != nil {
		return nil, err
	}
	db := &DB{
		cat:            catalog.New(),
		txm:            txn.NewManager(log),
		buf:            bufmgr.New(0),
		log:            log,
		dir:            dir,
		plans:          plancache.New(DefaultPlanCacheCapacity),
		Parallelism:    runtime.GOMAXPROCS(0),
		moverThreshold: DefaultMoverThreshold,
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.vwt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	for _, f := range files {
		t, err := storage.Open(f)
		if err != nil {
			return nil, fmt.Errorf("vectorwise: load %s: %w", f, err)
		}
		db.cat.Put(t)
		db.txm.Register(t)
	}
	if err := db.txm.Recover(recs); err != nil {
		return nil, err
	}
	for _, name := range db.cat.Names() {
		if err := db.refreshLayers(name); err != nil {
			return nil, err
		}
	}
	db.SetMoverInterval(DefaultMoverInterval)
	return db, nil
}

// Close stops the background tuple mover and releases the WAL handle.
// It takes the write lock, so it blocks until in-flight statements
// drain; using the DB after Close is invalid. Open cursors keep
// streaming their pinned snapshots (purely in-memory state), but no new
// statement may start.
func (db *DB) Close() error {
	db.stopMover()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.log != nil {
		return db.log.Close()
	}
	return nil
}

// SetParallelism sets the worker count the parallel rewriter targets
// for subsequent queries. Unlike writing the Parallelism field
// directly, it is safe to call while other goroutines are querying.
func (db *DB) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	db.mu.Lock()
	db.Parallelism = n
	db.mu.Unlock()
}

// ScanStats returns the cumulative row-group counters of every query
// this DB has run: how many groups scans actually decompressed and how
// many min/max data skipping pruned. The per-query form is
// [Rows.ScanStats].
func (db *DB) ScanStats() storage.ScanStatsSnapshot { return db.scanStats.Snapshot() }

// HashStats returns the cumulative hash-table counters of every query
// this DB has run: how many agg/join tables were built, the distinct
// keys they held, directory resizes, and the longest probe distance
// observed. The per-query form is [Rows.HashStats].
func (db *DB) HashStats() core.HashStatsTotalsSnapshot { return db.hashStats.Snapshot() }

// SetDataSkipping enables or disables min/max row-group pruning and the
// binary search of sorted chunks for subsequent queries (default on).
// In-scan filters still evaluate either way — the switch
// isolates the I/O effect of data skipping for benchmarks and
// differential tests. Safe to call while other goroutines are querying.
func (db *DB) SetDataSkipping(on bool) {
	db.mu.Lock()
	db.noSkip = !on
	db.mu.Unlock()
}

// Catalog exposes the catalog (experiment harness hook). The catalog is
// internally synchronized, but mutating entries it returns is only safe
// while no queries are running.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// BufferManager exposes the buffer pool (experiment harness hook). The
// manager is safe for concurrent use.
func (db *DB) BufferManager() *bufmgr.Manager { return db.buf }

// refreshLayers publishes the committed PDT layer stack into the
// catalog (the live view for compilations without a pinned snapshot)
// and retires the current epoch snapshot. Callers hold the write lock
// and have just changed committed state.
func (db *DB) refreshLayers(table string) error {
	pin, err := db.txm.Pin(table)
	if err != nil {
		return err
	}
	var layers []*pdt.PDT
	if l := pin.Layers(); len(l) > 0 {
		layers = l
	}
	if err := db.cat.SetLayers(table, layers); err != nil {
		return err
	}
	db.invalidateSnapshot()
	return nil
}

// RegisterTable adds a pre-built table under a name not yet in use and,
// when the DB is disk-backed, persists its image — as CREATE TABLE does.
// (An existing table's image is only ever replaced by the tuple mover's
// path, see mover.go; rows are added to one with [DB.LoadBatch].)
func (db *DB) RegisterTable(t *storage.Table) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.registerTableLocked(t)
}

// registerTableLocked is RegisterTable for callers already holding the
// write lock (db.mu is not reentrant).
func (db *DB) registerTableLocked(t *storage.Table) error {
	if _, err := db.cat.Get(t.Meta.Name); err == nil {
		return fmt.Errorf("vectorwise: table %q already exists", t.Meta.Name)
	}
	db.cat.Put(t)
	db.txm.Register(t)
	db.invalidateSnapshot()
	return db.persist(t)
}

// persist writes a table image to its file when the DB is disk-backed
// (crash-atomic: temporary file, fsync, rename).
func (db *DB) persist(t *storage.Table) error {
	if db.dir == "" {
		return nil
	}
	return t.Save(filepath.Join(db.dir, t.Meta.Name+".vwt"))
}

// stmtKind classifies a cached statement for dispatch without re-parsing.
type stmtKind uint8

const (
	stmtSelect stmtKind = iota
	stmtCreate
	stmtInsert
	stmtUpdate
	stmtDelete
)

// cachedStmt is one plan-cache artifact: the reusable compilation of a
// statement under one (schema epoch, parallelism). Every statement is
// planned once, with algebra.Param slots where the SQL had placeholders,
// and each execution fills the slots the same way (algebra.BindParams):
// a SELECT carries its finished plan template, UPDATE and DELETE the
// template of their read side, INSERT its lowered VALUES cells. All of it
// is immutable after construction and shared by concurrent executions.
type cachedStmt struct {
	kind       stmtKind
	numParams  int
	plan       algebra.Node // SELECT; UPDATE/DELETE: sql.Planner.PlanDML's read side
	*writeStmt              // non-SELECT only (a SELECT artifact stays five words)
}

// writeStmt is what a DDL/DML artifact holds beside the read-side plan.
type writeStmt struct {
	table   string             // DML: the target table
	targets []int              // UPDATE: the table column each SET item assigns
	values  [][]algebra.Scalar // INSERT: one row of cells per VALUES tuple
	create  *sql.CreateStmt
}

// compileStmtLocked plans a parsed statement into its cache artifact.
// Callers hold db.mu (read suffices: planning only reads the catalog).
func (db *DB) compileStmtLocked(st *sql.Statement, partial bool) (*cachedStmt, error) {
	cs := &cachedStmt{numParams: st.NumParams}
	planner := &sql.Planner{Cat: db.cat}
	var err error
	switch s := st.AST.(type) {
	case *sql.SelectStmt, *sql.SetOpStmt:
		if cs.plan, err = planner.PlanQuery(s); err != nil {
			return nil, err
		}
		if partial {
			cs.plan, _ = rewriter.Split(cs.plan)
		}
		if db.Parallelism > 1 {
			cs.plan = rewriter.Parallelize(cs.plan, db.cat, db.Parallelism)
		}
		return cs, nil
	case *sql.CreateStmt:
		cs.kind, cs.writeStmt = stmtCreate, &writeStmt{create: s}
	case *sql.InsertStmt:
		cs.kind, cs.writeStmt = stmtInsert, &writeStmt{table: s.Table}
		cs.values, err = planner.PlanInsert(s)
	case *sql.UpdateStmt:
		cs.kind, cs.writeStmt = stmtUpdate, &writeStmt{table: s.Table}
		cs.plan, cs.targets, err = planner.PlanDML(s.Table, s.Where, s.SetCols, s.SetExprs)
	case *sql.DeleteStmt:
		cs.kind, cs.writeStmt = stmtDelete, &writeStmt{table: s.Table}
		cs.plan, _, err = planner.PlanDML(s.Table, s.Where, nil, nil)
	}
	if partial {
		return nil, fmt.Errorf("vectorwise: QueryPartial requires SELECT")
	}
	return cs, err
}

// getStmtLocked returns the cached compilation of normalized statement
// text under the current schema epoch, parsing and planning on miss.
// Callers hold db.mu (read suffices, and the cache is internally
// synchronized).
func (db *DB) getStmtLocked(norm string, partial bool) (*cachedStmt, error) {
	key := plancache.Key{SQL: norm, Epoch: db.cat.Epoch(), Parallelism: db.Parallelism, Partial: partial}
	if v, ok := db.plans.Get(key); ok {
		return v.(*cachedStmt), nil
	}
	st, err := sql.Parse(norm)
	if err != nil {
		return nil, err
	}
	cs, err := db.compileStmtLocked(st, partial)
	if err != nil {
		return nil, err
	}
	db.plans.Put(key, cs)
	return cs, nil
}

// bindArgs boxes Go argument values for parameter binding.
func bindArgs(args []any) ([]vtypes.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]vtypes.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			out[i] = vtypes.Value{Null: true}
		case int:
			out[i] = vtypes.I64Value(int64(v))
		case int32:
			out[i] = vtypes.I64Value(int64(v))
		case int64:
			out[i] = vtypes.I64Value(v)
		case uint:
			if uint64(v) > math.MaxInt64 {
				return nil, fmt.Errorf("vectorwise: parameter $%d overflows BIGINT", i+1)
			}
			out[i] = vtypes.I64Value(int64(v))
		case uint32:
			out[i] = vtypes.I64Value(int64(v))
		case uint64:
			if v > math.MaxInt64 {
				return nil, fmt.Errorf("vectorwise: parameter $%d overflows BIGINT", i+1)
			}
			out[i] = vtypes.I64Value(int64(v))
		case float32:
			out[i] = vtypes.F64Value(float64(v))
		case float64:
			out[i] = vtypes.F64Value(v)
		case string:
			out[i] = vtypes.StrValue(v)
		case bool:
			out[i] = vtypes.BoolValue(v)
		case time.Time:
			// DATE parameters bind from time.Time directly (the civil
			// date in the value's own location), so TPC-H-style date
			// predicates need no pre-formatted strings.
			y, m, d := v.Date()
			out[i] = vtypes.Value{Kind: vtypes.KindDate, I64: vtypes.DaysFromCivil(y, int(m), d)}
		case vtypes.Value:
			out[i] = v
		default:
			return nil, fmt.Errorf("vectorwise: unsupported parameter type %T for $%d", a, i+1)
		}
	}
	return out, nil
}

// Exec runs a DDL/DML statement and returns the affected row count.
// Exec serializes under the DB write lock: one DDL/DML statement runs
// at a time, and never concurrently with a SELECT. Each DML statement
// is a single PDT transaction committed (or aborted) before Exec
// returns.
func (db *DB) Exec(sqlText string) (int64, error) {
	return db.ExecArgs(sqlText)
}

// ExecArgs is Exec with `?` / `$N` placeholders bound from args
// (args[0] binds $1). Compiled statements are cached, so repeated
// parametrized DML skips the parser and the planner.
func (db *DB) ExecArgs(sqlText string, args ...any) (int64, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return 0, err
	}
	norm := plancache.Normalize(sqlText)
	db.mu.Lock()
	defer db.mu.Unlock()
	cs, err := db.getStmtLocked(norm, false)
	if err != nil {
		return 0, err
	}
	return db.execCachedLocked(cs, vals)
}

// execCachedLocked dispatches a cached DDL/DML compilation under the
// write lock.
func (db *DB) execCachedLocked(cs *cachedStmt, vals []vtypes.Value) (int64, error) {
	if len(vals) != cs.numParams {
		return 0, fmt.Errorf("vectorwise: statement takes %d parameters, got %d", cs.numParams, len(vals))
	}
	switch cs.kind {
	case stmtCreate:
		return 0, db.execCreateLocked(cs.create)
	case stmtInsert:
		return db.execInsert(cs, vals)
	case stmtUpdate, stmtDelete:
		return db.execDMLLocked(cs, vals)
	default: // SELECT
		return 0, fmt.Errorf("vectorwise: use Query for SELECT")
	}
}

// Query runs a SELECT through the full stack: parse → plan →
// parallelize → cross-compile → vectorized execution, with the front
// half (parse through parallelize) served from the plan cache on
// repeated statements. Any number of queries run concurrently with
// each other and with writers: each pins an immutable epoch snapshot
// of the committed state at start and observes exactly that state,
// while DDL/DML publishes new state without waiting for them.
//
// Query is a collect-all convenience over [DB.QueryContext]: it drains
// the streaming cursor into boxed rows. Large results and cancellable
// statements should use QueryContext directly.
func (db *DB) Query(sqlText string) (*Result, error) {
	return db.QueryArgs(sqlText)
}

// QueryArgs is Query with `?` / `$N` placeholders bound from args
// (args[0] binds $1). The first execution plans a template; repeated
// executions bind typed literals into the cached template and go
// straight to the cross-compiler — no lexing, parsing, or rewriting.
func (db *DB) QueryArgs(sqlText string, args ...any) (*Result, error) {
	rows, err := db.QueryContext(context.Background(), sqlText, args...)
	if err != nil {
		return nil, err
	}
	return rows.collect()
}

// QueryContext runs a SELECT and returns a lazily-executed streaming
// cursor instead of a materialized result: no operator pulls a batch
// until the cursor is consumed, and nothing is ever boxed on the
// NextBatch path. The shared read lock is held only while the statement
// is resolved and compiled; the returned cursor owns a pinned epoch
// snapshot, not a lock — see the Rows type for snapshot tenure and the
// cancellation contract (ctx stops scans, joins, aggregates and
// exchange workers at the next vector boundary). args bind `?` / `$N`
// placeholders.
func (db *DB) QueryContext(ctx context.Context, sqlText string, args ...any) (*Rows, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	cs, err := db.getStmtLocked(plancache.Normalize(sqlText), false)
	if err != nil {
		return nil, err
	}
	return db.rowsCachedLocked(ctx, cs, vals)
}

// QueryPartial runs a shard's half of a distributed SELECT: the
// statement is planned exactly as QueryContext plans it, then cut by
// rewriter.Split, and the cursor streams the below half — partial
// aggregates, this node's top-N, or plain rows — in below's schema, not
// the statement's. The cluster coordinator plans the same text with the
// same rule and runs the above half over every shard's stream.
func (db *DB) QueryPartial(ctx context.Context, sqlText string) (*Rows, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cs, err := db.getStmtLocked(plancache.Normalize(sqlText), true)
	if err != nil {
		return nil, err
	}
	return db.rowsCachedLocked(ctx, cs, nil)
}

// rowsCachedLocked binds a cached SELECT compilation and opens a cursor
// over it. The caller holds db.mu.RLock (and releases it itself — the
// cursor owns a pinned snapshot, not the lock).
func (db *DB) rowsCachedLocked(ctx context.Context, cs *cachedStmt, vals []vtypes.Value) (*Rows, error) {
	if cs.kind != stmtSelect {
		return nil, fmt.Errorf("vectorwise: Query requires SELECT")
	}
	if len(vals) != cs.numParams {
		return nil, fmt.Errorf("vectorwise: statement takes %d parameters, got %d", cs.numParams, len(vals))
	}
	plan, err := cs.bind(vals)
	if err != nil {
		return nil, err
	}
	return db.openRowsLocked(ctx, plan)
}

// bind fills the plan template's parameter slots.
func (cs *cachedStmt) bind(vals []vtypes.Value) (algebra.Node, error) {
	if cs.numParams == 0 {
		return cs.plan, nil
	}
	return algebra.BindParams(cs.plan, vals)
}

// Explain returns the optimized plan tree of a SELECT: the planner's
// finished plan and — when Parallelism > 1 — the Xchange
// parallelization rewrite, rendered one operator per line.
// Unbound placeholders render as `$N`. Like Query it runs under the
// shared read lock and shares the plan cache.
func (db *DB) Explain(sqlText string) (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cs, err := db.getStmtLocked(plancache.Normalize(sqlText), false)
	if err != nil {
		return "", err
	}
	if cs.kind != stmtSelect {
		return "", fmt.Errorf("vectorwise: Explain requires SELECT")
	}
	return algebra.Explain(cs.plan), nil
}

// ExplainAnalyze executes a SELECT (binding args to placeholders) and
// returns its optimized plan annotated with runtime scan counters: how
// many row groups the scans decompressed, how many min/max data
// skipping pruned without touching, and how many rows of the
// decompressed groups a binary search of a sorted chunk left unread.
// Unlike [DB.Explain] the rendered plan is the bound plan, so
// parametrized filters show the execution's actual bounds.
func (db *DB) ExplainAnalyze(sqlText string, args ...any) (string, error) {
	rows, err := db.QueryContext(context.Background(), sqlText, args...)
	if err != nil {
		return "", err
	}
	// The cursor owns a pinned snapshot now; drain it fully so the
	// counters cover the whole statement.
	n := 0
	for {
		b, err := rows.NextCodedBatch()
		if err != nil {
			rows.Close()
			return "", err
		}
		if b == nil {
			break
		}
		n += b.N
	}
	st := rows.ScanStats()
	out := fmt.Sprintf("%sscan: groups_scanned=%d groups_pruned=%d rows_skipped=%d rows=%d\n",
		algebra.Explain(rows.plan), st.GroupsScanned, st.GroupsPruned, st.RowsSkipped, n)
	// Hash-keyed operators (aggregates, joins) append one line each: how
	// keys were resolved, the most groups an aggregate over an ordered key
	// held, table shape, probe-length distribution, and time spent in the
	// table-bound phase.
	for _, h := range rows.HashStats() {
		out += fmt.Sprintf("hash(%s): keys=%s ", h.Op, h.Keys)
		if h.Held > 0 {
			out += fmt.Sprintf("held=%d ", h.Held)
		}
		out += fmt.Sprintf("slots=%d entries=%d load=%.2f resizes=%d probe_p50=%d probe_max=%d phase=%s\n",
			h.Slots, h.Entries, h.Load, h.Resizes, h.ProbeP50, h.ProbeMax,
			time.Duration(h.PhaseNs).Round(time.Microsecond))
	}
	return out, nil
}

// Prepare validates and compiles a statement once, returning a handle
// that executes it with bound placeholder values:
//
//	stmt, _ := db.Prepare(`SELECT v FROM t WHERE k = ?`)
//	res, _ := stmt.Query(int64(42))
//
// The compilation lives in the DB's plan cache, so the handle stays
// valid across DDL — a schema-epoch bump simply makes the next
// execution re-plan. Stmt is safe for concurrent use.
func (db *DB) Prepare(sqlText string) (*Stmt, error) {
	norm := plancache.Normalize(sqlText)
	db.mu.RLock()
	epoch, par := db.cat.Epoch(), db.Parallelism
	cs, err := db.getStmtLocked(norm, false)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	s := &Stmt{db: db, sql: norm, kind: cs.kind, numParams: cs.numParams}
	s.cached, s.epoch, s.par = cs, epoch, par
	return s, nil
}

// LookupPrepared returns a prepared handle for sqlText only when its
// compilation is already cached under the current schema epoch — no
// lexing, parsing, or planning happens on a miss. Serving layers use it
// as the pre-admission fast path: warm statements resolve for free,
// cold ones defer compilation until the request holds an execution
// slot.
func (db *DB) LookupPrepared(sqlText string) (*Stmt, bool) {
	norm := plancache.Normalize(sqlText)
	db.mu.RLock()
	epoch, par := db.cat.Epoch(), db.Parallelism
	v, ok := db.plans.Peek(plancache.Key{SQL: norm, Epoch: epoch, Parallelism: par})
	db.mu.RUnlock()
	if !ok {
		return nil, false
	}
	cs := v.(*cachedStmt)
	s := &Stmt{db: db, sql: norm, kind: cs.kind, numParams: cs.numParams}
	s.cached, s.epoch, s.par = cs, epoch, par
	return s, true
}

// Stmt is a prepared statement bound to a DB. It memoizes the compiled
// form together with the schema epoch and parallelism it was resolved
// under: while those are unchanged, executions bind directly with no
// text normalization or cache lookup at all; after a schema change the
// next execution transparently re-resolves through the plan cache.
type Stmt struct {
	db        *DB
	sql       string
	kind      stmtKind
	numParams int

	// mu guards the memoized resolution below.
	mu     sync.Mutex
	cached *cachedStmt
	epoch  uint64
	par    int
}

// resolveLocked returns the statement's compilation. The caller holds
// the DB lock (read or write), which pins epoch and parallelism for the
// duration of the execution that follows.
func (s *Stmt) resolveLocked() (*cachedStmt, error) {
	epoch, par := s.db.cat.Epoch(), s.db.Parallelism
	s.mu.Lock()
	cs := s.cached
	valid := cs != nil && s.epoch == epoch && s.par == par
	s.mu.Unlock()
	if valid {
		return cs, nil
	}
	cs, err := s.db.getStmtLocked(s.sql, false)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.cached, s.epoch, s.par = cs, epoch, par
	s.mu.Unlock()
	return cs, nil
}

// NumParams reports how many placeholder values the statement takes.
func (s *Stmt) NumParams() int { return s.numParams }

// SQL returns the normalized statement text the handle executes.
func (s *Stmt) SQL() string { return s.sql }

// IsSelect reports whether the statement is a SELECT (execute with
// Query) as opposed to DDL/DML (execute with Exec).
func (s *Stmt) IsSelect() bool { return s.kind == stmtSelect }

// Query executes a prepared SELECT with args bound to its placeholders,
// collecting the whole result (see Stmt.QueryContext for the streaming
// cursor form).
func (s *Stmt) Query(args ...any) (*Result, error) {
	rows, err := s.QueryContext(context.Background(), args...)
	if err != nil {
		return nil, err
	}
	return rows.collect()
}

// QueryContext executes a prepared SELECT as a streaming cursor: the
// cached plan template is bound and compiled, and the returned Rows
// owns a pinned epoch snapshot until Close. ctx cancels the statement
// between vector batches exactly as in [DB.QueryContext].
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (*Rows, error) {
	if s.kind != stmtSelect {
		return nil, fmt.Errorf("vectorwise: prepared statement is not a SELECT; use Exec")
	}
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	cs, err := s.resolveLocked()
	if err != nil {
		return nil, err
	}
	return s.db.rowsCachedLocked(ctx, cs, vals)
}

// Exec executes a prepared DDL/DML statement with args bound to its
// placeholders, returning the affected row count.
func (s *Stmt) Exec(args ...any) (int64, error) {
	if s.kind == stmtSelect {
		return 0, fmt.Errorf("vectorwise: prepared statement is a SELECT; use Query")
	}
	vals, err := bindArgs(args)
	if err != nil {
		return 0, err
	}
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	cs, err := s.resolveLocked()
	if err != nil {
		return 0, err
	}
	return s.db.execCachedLocked(cs, vals)
}

// PlanCacheStats snapshots the plan cache's hit/miss/eviction counters.
func (db *DB) PlanCacheStats() plancache.Stats { return db.plans.Stats() }

// SetPlanCacheCapacity resizes the plan cache; 0 disables caching so
// every statement re-plans (the configuration BenchmarkPreparedVsAdHoc
// measures against). Safe to call concurrently with queries.
func (db *DB) SetPlanCacheCapacity(n int) { db.plans.Resize(n) }

// execCreateLocked runs CREATE TABLE. Callers hold the db.mu write
// lock (execCachedLocked dispatches under it) — which registerTable
// requires, hence the suffix.
func (db *DB) execCreateLocked(s *sql.CreateStmt) error {
	var cols []vtypes.Column
	for _, c := range s.Cols {
		var k vtypes.Kind
		switch c.Type {
		case "BIGINT":
			k = vtypes.KindI64
		case "DOUBLE":
			k = vtypes.KindF64
		case "VARCHAR":
			k = vtypes.KindStr
		case "BOOLEAN":
			k = vtypes.KindBool
		case "DATE":
			k = vtypes.KindDate
		default:
			return fmt.Errorf("vectorwise: unsupported type %q", c.Type)
		}
		cols = append(cols, vtypes.Column{Name: strings.ToLower(c.Name), Kind: k, Nullable: c.Nullable})
	}
	b := storage.NewBuilder(s.Table, &vtypes.Schema{Cols: cols}, 0)
	t, err := b.Finish()
	if err != nil {
		return err
	}
	return db.registerTableLocked(t)
}

func (db *DB) execInsert(cs *cachedStmt, params []vtypes.Value) (int64, error) {
	table := cs.table
	ent, err := db.cat.Get(table)
	if err != nil {
		return 0, err
	}
	schema := ent.Table.Schema()
	tx, err := db.txm.Begin(table)
	if err != nil {
		return 0, err
	}
	for _, cells := range cs.values {
		// Fold after binding, so `0 - ?` is the literal it stands for.
		cells, err := algebra.BindScalars(cells, params)
		row := make(vtypes.Row, len(cells))
		for c := 0; err == nil && c < len(cells); c++ {
			row[c], err = sql.FoldLiteral(cells[c], schema.Col(c).Kind)
		}
		if err != nil {
			tx.Abort()
			return 0, err
		}
		if err := tx.Insert(row); err != nil {
			tx.Abort()
			return 0, err
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	if err := db.refreshLayers(table); err != nil {
		return 0, err
	}
	return int64(len(cs.values)), nil
}

// execDMLLocked runs an UPDATE (cs.targets non-empty) or DELETE. The read
// side is an ordinary query — the planner's Project[$rid, SET values]
// over a filtered row-id scan, cached and bound like any SELECT template
// and opened like one (snapshot pin,
// buffer manager, data skipping, ScanStats). Autocommit DML qualifies
// with an empty private PDT, so the committed snapshot is the
// transaction's view, frozen by the write lock the caller holds. The
// write side drains the cursor into RID-addressed PDT entries and
// commits.
func (db *DB) execDMLLocked(cs *cachedStmt, params []vtypes.Value) (int64, error) {
	plan, err := cs.bind(params)
	if err != nil {
		return 0, err
	}
	table, targets := cs.table, cs.targets
	ent, err := db.cat.Get(table)
	if err != nil {
		return 0, err
	}
	schema := ent.Table.Schema()
	rows, err := db.openRowsLocked(context.Background(), plan)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	tx, err := db.txm.Begin(table)
	if err != nil {
		return 0, err
	}
	var n int64
	apply := func(b *vector.Batch, ix int) error {
		rid := b.Vecs[0].I64[ix]
		if targets == nil {
			// RIDs arrive ascending and address the pre-image: every
			// delete shifts the rows after it down by one.
			return tx.Delete(rid - n)
		}
		for c, col := range targets {
			v, err := algebra.CoerceValue(ownValue(b.Vecs[1+c].Get(ix)), schema.Col(col).Kind)
			if err != nil {
				return err
			}
			if err := tx.Update(rid, col, v); err != nil {
				return err
			}
		}
		return nil
	}
	for {
		b, err := rows.NextCodedBatch()
		if err != nil {
			tx.Abort()
			return 0, err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			if err := apply(b, b.LiveIndex(i)); err != nil {
				tx.Abort()
				return 0, err
			}
			n++
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	if err := db.refreshLayers(table); err != nil {
		return 0, err
	}
	return n, nil
}

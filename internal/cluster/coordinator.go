package cluster

// The coordinator: the initiator node of the distributed exchange. It
// owns the shard map, mirrors cluster DDL into a local empty "schema
// DB" (whose catalog plans every statement before any fan-out), routes
// ingest by shard key, and answers SELECTs by running the coordinator
// half of the distributed plan over the shards' partial streams
// (query.go).

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/sql"
	"vectorwise/internal/vtypes"
)

// Config tunes a Coordinator.
type Config struct {
	// Map is the cluster topology (required).
	Map *ShardMap
	// Timeout bounds each shard request (default 30s).
	Timeout time.Duration
	// HealthInterval is the replica health poll period (default 2s).
	HealthInterval time.Duration
}

// Coordinator fronts a sharded + replicated vwserve cluster.
type Coordinator struct {
	m      *ShardMap
	c      *client
	health *healthTracker
	// schema is an empty local engine holding only the cluster's DDL:
	// incoming statements are planned against its catalog, so bad SQL
	// fails before any network fan-out, and the plan's schemas supply
	// the column kinds the NDJSON wire decode needs.
	schema  *vectorwise.DB
	ddlMu   sync.Mutex
	stats   []*ShardStats
	queries atomic.Int64
	rr      atomic.Int64 // round-robin cursor for replicated-only reads
	started time.Time
}

// New builds a Coordinator over an existing cluster of vwserve nodes.
// The nodes are assumed empty (or identically initialized); issue DDL
// through the coordinator so the schema DB stays in sync.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Map == nil || cfg.Map.NumShards() == 0 {
		return nil, fmt.Errorf("cluster: config needs a shard map")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	db := vectorwise.OpenMemory()
	db.SetParallelism(1) // schema DB plans, it never scans data
	c := newClient(cfg.Timeout)
	co := &Coordinator{
		m:       cfg.Map,
		c:       c,
		health:  newHealthTracker(c, cfg.Map.AllNodes(), cfg.HealthInterval),
		schema:  db,
		stats:   make([]*ShardStats, cfg.Map.NumShards()),
		started: time.Now(),
	}
	for i := range co.stats {
		co.stats[i] = &ShardStats{}
	}
	return co, nil
}

// Close stops the health prober and the schema DB.
func (co *Coordinator) Close() error {
	co.health.close()
	return co.schema.Close()
}

// Map returns the shard map.
func (co *Coordinator) Map() *ShardMap { return co.m }

// broadcast runs fn against every URL concurrently and returns the
// first error.
func broadcast(urls []string, fn func(url string) error) error {
	errs := make([]error, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		i, u := i, u
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(u)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Exec runs a DDL or DML statement against the cluster, returning rows
// affected. DDL and non-routable DML broadcast to every node; INSERTs
// into sharded tables route each VALUES row by its shard key, and an
// UPDATE may not set one.
func (co *Coordinator) Exec(ctx context.Context, sqlText string) (int64, error) {
	st, err := sql.Parse(sqlText)
	if err != nil {
		return 0, err
	}
	if st.NumParams > 0 {
		return 0, fmt.Errorf("%w: parameter placeholders are unsupported", ErrNotDistributable)
	}
	switch t := st.AST.(type) {
	case *sql.SelectStmt, *sql.SetOpStmt:
		return 0, fmt.Errorf("%w: Exec cannot run SELECT; use Query", ErrNotDistributable)
	case *sql.CreateStmt:
		return 0, co.execDDL(ctx, sqlText)
	case *sql.InsertStmt:
		return co.execInsert(ctx, t, sqlText)
	case *sql.UpdateStmt:
		// Every shard would update its own rows in place, so a row whose
		// key changed would stay on the shard of its old key.
		p := co.m.Placement(strings.ToLower(t.Table))
		if p.Sharded && slices.Contains(t.SetCols, p.KeyCol) {
			return 0, fmt.Errorf("%w: UPDATE cannot set shard key %s", ErrNotDistributable, p.KeyCol)
		}
		return co.execBroadcastDML(ctx, sqlText, t.Table)
	case *sql.DeleteStmt:
		return co.execBroadcastDML(ctx, sqlText, t.Table)
	default:
		return 0, ErrNotDistributable
	}
}

// execDDL applies DDL locally (validating it) then on every node.
func (co *Coordinator) execDDL(ctx context.Context, sqlText string) error {
	co.ddlMu.Lock()
	defer co.ddlMu.Unlock()
	if _, err := co.schema.Exec(sqlText); err != nil {
		return err
	}
	return broadcast(co.m.AllNodes(), func(u string) error {
		_, err := co.c.exec(ctx, u, sqlText)
		return err
	})
}

// execBroadcastDML runs an UPDATE/DELETE on every node. Each sharded
// row lives on exactly one shard, so summing one replica per shard
// counts every row once; for replicated tables every node mutates the
// same rows, so shard 0's count is the answer.
func (co *Coordinator) execBroadcastDML(ctx context.Context, sqlText, table string) (int64, error) {
	var mu sync.Mutex
	perShard := make([]int64, co.m.NumShards())
	for si, reps := range co.m.Shards {
		si := si
		if err := broadcast(reps, func(u string) error {
			qr, err := co.c.exec(ctx, u, sqlText)
			if err != nil {
				return err
			}
			if qr.RowsAffected != nil {
				mu.Lock()
				perShard[si] = *qr.RowsAffected
				mu.Unlock()
			}
			return nil
		}); err != nil {
			return 0, err
		}
	}
	if co.m.Placement(strings.ToLower(table)).Sharded {
		var total int64
		for _, n := range perShard {
			total += n
		}
		return total, nil
	}
	return perShard[0], nil
}

// execInsert routes INSERT rows: sharded tables split the VALUES list
// by hashed shard key, replicated tables broadcast the whole statement.
func (co *Coordinator) execInsert(ctx context.Context, ins *sql.InsertStmt, sqlText string) (int64, error) {
	table := strings.ToLower(ins.Table)
	p := co.m.Placement(table)
	if !p.Sharded {
		if err := broadcast(co.m.AllNodes(), func(u string) error {
			_, err := co.c.exec(ctx, u, sqlText)
			return err
		}); err != nil {
			return 0, err
		}
		return int64(len(ins.Rows)), nil
	}
	keyIdx, keyCol, err := co.keyColumn(table, p.KeyCol)
	if err != nil {
		return 0, err
	}
	perShard := make([][][]sql.Expr, co.m.NumShards())
	planner := &sql.Planner{Cat: co.schema.Catalog()}
	for _, row := range ins.Rows {
		if keyIdx >= len(row) {
			return 0, fmt.Errorf("cluster: INSERT row has no value for shard key %s", p.KeyCol)
		}
		// Fold the key expression exactly as the owning node will, so
		// `-5` (parsed as 0 - 5) or DATE '…' routes by the stored value.
		v, err := planner.LowerLiteral(row[keyIdx], keyCol.Kind)
		if err != nil {
			return 0, fmt.Errorf("cluster: shard key %s: %w", p.KeyCol, err)
		}
		key, err := shardKey(v)
		if err != nil {
			return 0, err
		}
		si := co.m.ShardForKey(key)
		perShard[si] = append(perShard[si], row)
	}
	var total atomic.Int64
	for si, rows := range perShard {
		if len(rows) == 0 {
			continue
		}
		stmtText := sql.RenderInsert(ins.Table, rows)
		n := int64(len(rows))
		if err := broadcast(co.m.Shards[si], func(u string) error {
			_, err := co.c.exec(ctx, u, stmtText)
			return err
		}); err != nil {
			return total.Load(), err
		}
		total.Add(n)
	}
	return total.Load(), nil
}

// keyColumn resolves a sharded table's key column from the schema DB.
func (co *Coordinator) keyColumn(table, keyCol string) (int, vtypes.Column, error) {
	ent, err := co.schema.Catalog().Get(table)
	if err != nil {
		return 0, vtypes.Column{}, fmt.Errorf("cluster: sharded table %s has no DDL yet: %w", table, err)
	}
	sch := ent.Table.Schema()
	ix := sch.ColIndex(keyCol)
	if ix < 0 {
		return 0, vtypes.Column{}, fmt.Errorf("cluster: table %s has no shard key column %s", table, keyCol)
	}
	return ix, sch.Col(ix), nil
}

// shardKey is the one canonical routing form of the value a row's key
// column will store — integers in decimal, dates as epoch days, strings
// verbatim — whichever way the row arrives: INSERT folds its expression
// with the node's LowerLiteral, CSV parses its field with the node's
// ParseCSVField. Routing by the stored value is what makes a co-located
// join on the key see every matching row.
func shardKey(v vtypes.Value) (string, error) {
	switch {
	case v.Null:
		return "", fmt.Errorf("cluster: shard key must not be NULL")
	case v.Kind == vtypes.KindStr:
		return v.Str, nil
	case v.Kind == vtypes.KindI64 || v.Kind == vtypes.KindDate:
		return strconv.FormatInt(v.I64, 10), nil
	}
	return "", fmt.Errorf("cluster: unsupported shard key kind %v", v.Kind)
}

// LoadOptions mirror the node-side CSV options the coordinator forwards.
type LoadOptions struct {
	// Header skips the first CSV record.
	Header bool
	// Null is the token read as NULL on the nodes.
	Null string
}

// LoadCSV bulk-loads CSV into a cluster table: sharded tables fan rows
// out by hashed shard key (every replica of the owning shard receives
// the row), replicated tables receive the full input on every node.
// Returns total rows loaded (counting each logical row once).
func (co *Coordinator) LoadCSV(ctx context.Context, table string, r io.Reader, opts LoadOptions) (int64, error) {
	table = strings.ToLower(table)
	p := co.m.Placement(table)
	if !p.Sharded {
		data, err := io.ReadAll(r)
		if err != nil {
			return 0, err
		}
		var rows atomic.Int64
		if err := broadcast(co.m.AllNodes(), func(u string) error {
			n, err := co.c.load(ctx, u, table, opts.Header, opts.Null, data)
			rows.Store(n)
			return err
		}); err != nil {
			return 0, err
		}
		return rows.Load(), nil
	}

	keyIdx, keyCol, err := co.keyColumn(table, p.KeyCol)
	if err != nil {
		return 0, err
	}
	bufs := make([]bytes.Buffer, co.m.NumShards())
	writers := make([]*csv.Writer, co.m.NumShards())
	for i := range writers {
		writers[i] = csv.NewWriter(&bufs[i])
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	if opts.Header {
		if _, err := cr.Read(); err != nil && err != io.EOF {
			return 0, err
		}
	}
	var total int64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if keyIdx >= len(rec) {
			return 0, fmt.Errorf("cluster: CSV record has %d fields, shard key is column %d", len(rec), keyIdx+1)
		}
		v, err := vtypes.ParseCSVField(rec[keyIdx], keyCol, opts.Null)
		if err != nil {
			return 0, fmt.Errorf("cluster: shard key %s: %w", p.KeyCol, err)
		}
		key, err := shardKey(v)
		if err != nil {
			return 0, err
		}
		si := co.m.ShardForKey(key)
		if err := writers[si].Write(rec); err != nil {
			return 0, err
		}
		total++
	}
	for si := range writers {
		writers[si].Flush()
		if err := writers[si].Error(); err != nil {
			return 0, err
		}
		if bufs[si].Len() == 0 {
			continue
		}
		data := bufs[si].Bytes()
		if err := broadcast(co.m.Shards[si], func(u string) error {
			// Header already consumed above; the re-emitted CSV has none.
			_, err := co.c.load(ctx, u, table, false, opts.Null, data)
			return err
		}); err != nil {
			return 0, err
		}
	}
	return total, nil
}

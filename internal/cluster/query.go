package cluster

// The coordinator's read path. A SELECT is planned once, by the normal
// planner, against the schema-only catalog; rewriter.Distribute cuts the
// plan into the half every shard runs and the half that recombines the
// shard streams; every shard is sent the original SQL with "partial"
// set, plans the same text, applies the same cut and streams its half;
// and the coordinator's half compiles through xcompile like any other
// plan, its remote leaves bound to failover shard streams that the one
// exchange operator (core.XchgUnion) unions.

import (
	"context"
	"fmt"

	"vectorwise/internal/algebra"
	"vectorwise/internal/core"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/vector"
	"vectorwise/internal/xcompile"
)

// Result is a streaming distributed query result — the cluster-level
// analogue of vectorwise.Rows.
type Result struct {
	op     core.Operator
	cancel context.CancelFunc
}

// Columns returns the output column names.
func (r *Result) Columns() []string {
	schema := r.op.Schema()
	cols := make([]string, schema.Len())
	for i := range cols {
		cols[i] = schema.Col(i).Name
	}
	return cols
}

// NextBatch returns the next result batch, (nil, nil) at end of stream.
func (r *Result) NextBatch() (*vector.Batch, error) { return r.op.Next() }

// Close releases the result's resources. Shard requests still in flight
// are canceled, so abandoning a result frees the shards' cursors.
func (r *Result) Close() error {
	r.cancel()
	return r.op.Close()
}

// Query runs a SELECT (or set-operation) statement against the cluster.
func (co *Coordinator) Query(ctx context.Context, sqlText string) (*Result, error) {
	st, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	if st.NumParams > 0 {
		return nil, fmt.Errorf("%w: parameter placeholders are unsupported", ErrNotDistributable)
	}
	switch st.AST.(type) {
	case *sql.SelectStmt, *sql.SetOpStmt:
	default:
		return nil, fmt.Errorf("%w: Query needs a SELECT; use Exec for DDL/DML", ErrNotDistributable)
	}
	co.queries.Add(1)
	sharded, err := classify(st.AST, co.m)
	if err != nil {
		return nil, err
	}
	// Planning on the (empty) schema DB rejects a bad statement before
	// any fan-out and types the wire decode of every shard stream.
	cat := co.schema.Catalog()
	plan, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
	if err != nil {
		return nil, err
	}
	if sharded {
		plan = rewriter.Distribute(plan, co.m.NumShards())
	} else {
		// All referenced tables are replicated: one node answers the
		// whole statement. Spread the load round-robin across shards;
		// failover runs through that shard's replica set.
		plan = &algebra.RemoteNode{Shard: int(co.rr.Add(1)-1) % co.m.NumShards(), Out: plan.Schema()}
	}
	// When the coordinator's half is more than the bare union, nothing
	// reaches the client until an aggregate, sort or limit has seen the
	// shard streams, and those streams are partials or top-Ns — small.
	// Buffering them makes a replica's death recoverable at any point
	// (see shardSource); a bare union streams straight through.
	_, isUnion := plan.(*algebra.UnionAllNode)
	buffered := sharded && !isUnion

	req := co.c.queryBody(sqlText, sharded)
	ctx, cancel := context.WithCancel(ctx)
	op, err := xcompile.Compile(plan, cat, xcompile.Options{
		Ctx: ctx,
		Remote: func(r *algebra.RemoteNode) (core.Operator, error) {
			return &shardSource{
				ctx:      ctx,
				c:        co.c,
				shard:    r.Shard,
				replicas: co.health.order(co.m.Shards[r.Shard]),
				req:      req,
				schema:   r.Out,
				buffered: buffered,
				stats:    co.stats[r.Shard],
			}, nil
		},
	})
	if err == nil {
		if err = op.Open(); err != nil {
			op.Close()
		}
	}
	if err != nil {
		cancel()
		return nil, err
	}
	return &Result{op: op, cancel: cancel}, nil
}

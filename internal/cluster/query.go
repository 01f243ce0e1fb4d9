package cluster

// The coordinator's read path. A SELECT is planned once, by the normal
// planner, against the schema-only catalog; rewriter.Distribute checks
// where the plan's rows live and cuts it into the half every shard runs
// and the half that recombines the shard streams (or leaves a plan over
// replicated tables whole for one node, or refuses it); every shard is
// sent the original SQL with "partial" set, plans the same text, applies
// the same cut and streams its half; and the coordinator's half compiles
// through xcompile like any other plan, its remote leaves bound to
// failover shard streams that the one exchange operator (core.XchgUnion)
// unions.

import (
	"context"
	"errors"
	"fmt"

	"vectorwise/internal/algebra"
	"vectorwise/internal/core"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/vector"
	"vectorwise/internal/xcompile"
)

// ErrNotDistributable marks a statement the coordinator refuses by its
// shape: a query whose shard halves would not union to its answer
// (rewriter.Distribute says which part: a left outer, semi or anti join
// keeping a replicated input's rows against a sharded one, sharded
// inputs joined off their shard keys, a UNION mixing the two, or an
// aggregate over sharded rows inside the statement, such as a scalar
// subquery, that does not group by the shard key), an UPDATE setting a
// shard key, parameter placeholders, or a statement sent to the wrong
// one of Query and Exec. It is the client's fault (HTTP 400).
var ErrNotDistributable = errors.New("cluster: the coordinator cannot run this statement")

// distribute is the coordinator's decision on a plan: rewriter.Distribute
// over m's placement. sharded reports a plan cut for m's shards; a plan
// over replicated tables only returns unchanged, for one node.
func distribute(plan algebra.Node, m *ShardMap) (out algebra.Node, sharded bool, err error) {
	out, sharded, err = rewriter.Distribute(plan, m.NumShards(), func(table string) (string, bool) {
		p := m.Placement(table)
		return p.KeyCol, p.Sharded
	})
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrNotDistributable, err)
	}
	return out, sharded, nil
}

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
	// Planning on the (empty) schema DB rejects a bad statement before
	// any fan-out and types the wire decode of every shard stream.
	cat := co.schema.Catalog()
	plan, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
	if err != nil {
		return nil, err
	}
	plan, sharded, err := distribute(plan, co.m)
	if err != nil {
		return nil, err
	}
	if !sharded {
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

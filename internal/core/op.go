// Package core is the X100 vectorized execution engine — the paper's
// primary contribution. Operators form a Volcano-style pull tree, but
// each Next() transports a *vector batch* (~1K rows) instead of a single
// tuple, so the per-call interpretation overhead amortizes over the
// whole vector while intermediates stay CPU-cache resident (unlike
// MonetDB's full-column materialization).
//
// Contract: a batch returned by Next() is valid only until the next
// Next() or Close() on the same operator. Operators rely on it in both
// directions. Those that buffer input (hash build, sort, aggregate,
// exchange) copy what they retain. Those that produce output reuse it:
// Sort, HashAggregate and HashJoin each gather into one output batch of
// their own, allocated with the first batch they return and overwritten
// by every later Next — and a HashJoin output batch may reference its
// probe child's vectors directly (under the join's own selection
// vector), so it is valid only as long as the child's batch is, which is
// again until the join's next Next(). A consumer that needs rows beyond
// that copies them.
package core

import (
	"context"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// Operator is a vectorized physical operator.
type Operator interface {
	// Schema describes the output columns.
	Schema() *vtypes.Schema
	// Open prepares the operator tree (allocates buffers, builds hash
	// tables lazily on first Next).
	Open() error
	// Next returns the next batch, or nil at end of stream.
	Next() (*vector.Batch, error)
	// Close releases resources; the operator cannot be reused.
	Close() error
}

// ContextSetter is implemented by operators that honor a cancellation
// context: once ctx is done, Next returns ctx.Err() at the next batch
// boundary instead of producing more data. Stop-and-go operators (hash
// build, sort, aggregation) also check between input batches while
// materializing, so cancellation interrupts their build phase, not just
// their output phase. The cross-compiler installs the statement context
// on every node it builds; a nil context disables the checks.
type ContextSetter interface {
	SetContext(ctx context.Context)
}

// SetTreeContext installs ctx on op and, via the compiler's per-node
// application, is the hook hand-built trees can use on a single node.
// It is a no-op for operators predating cancellation support.
func SetTreeContext(op Operator, ctx context.Context) {
	if cs, ok := op.(ContextSetter); ok {
		cs.SetContext(ctx)
	}
}

// ctxErr is the per-batch cancellation check: nil context never
// cancels; otherwise it reports ctx.Err() once the context is done.
// Amortized over a ~1K-row vector the check is noise, which is why the
// engine can afford it on every Next.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Collect drains an operator into boxed rows — the boundary where
// vectors become user-visible results (and the only place the engine
// boxes values).
func Collect(op Operator) ([]vtypes.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []vtypes.Row
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		for i := 0; i < b.N; i++ {
			out = append(out, b.Row(i))
		}
	}
}

// Drain consumes an operator counting rows without materializing them
// (benchmark helper measuring pure engine throughput).
func Drain(op Operator) (int64, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	var n int64
	for {
		b, err := op.Next()
		if err != nil {
			return 0, err
		}
		if b == nil {
			return n, nil
		}
		n += int64(b.N)
	}
}

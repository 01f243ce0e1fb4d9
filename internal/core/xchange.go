package core

import (
	"context"
	"fmt"
	"sync"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// XchgUnion is the Volcano-style exchange operator the rewriter injects
// for multi-core parallelism (paper §I-B): each child subtree runs in
// its own goroutine, pushing ownership-transferred batches into a shared
// channel; the parent consumes them in arrival order. All parallelism in
// the engine flows through this one operator, keeping every other
// operator single-threaded and simple — and so does all distribution:
// on a cluster coordinator the children are remote shard streams.
type XchgUnion struct {
	children []Operator
	schema   *vtypes.Schema
	ch       chan *vector.Batch
	errCh    chan error
	wg       sync.WaitGroup
	firstErr error
	done     int
	ctx      context.Context
}

// NewXchgUnion merges the outputs of the children, which must share a
// schema.
func NewXchgUnion(children []Operator) (*XchgUnion, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("core: exchange needs children")
	}
	return &XchgUnion{children: children, schema: children[0].Schema()}, nil
}

// Schema implements Operator.
func (x *XchgUnion) Schema() *vtypes.Schema { return x.schema }

// SetContext implements ContextSetter. The context reaches the workers
// two ways: their own per-batch check below (covering subtrees built
// without contexts of their own) and the select on the ownership-
// transfer send, which unblocks a producer whose consumer stopped
// pulling after cancellation.
func (x *XchgUnion) SetContext(ctx context.Context) { x.ctx = ctx }

// Open implements Operator: launches one producer goroutine per child.
func (x *XchgUnion) Open() error {
	x.ch = make(chan *vector.Batch, len(x.children)*2)
	x.errCh = make(chan error, len(x.children))
	var done <-chan struct{} // nil channel: never ready
	if x.ctx != nil {
		done = x.ctx.Done()
	}
	for _, c := range x.children {
		c := c
		x.wg.Add(1)
		go func() {
			defer x.wg.Done()
			if err := c.Open(); err != nil {
				x.errCh <- err
				return
			}
			for {
				if err := ctxErr(x.ctx); err != nil {
					x.errCh <- err
					return
				}
				b, err := c.Next()
				if err != nil {
					x.errCh <- err
					return
				}
				if b == nil {
					x.errCh <- nil
					return
				}
				if b.N == 0 {
					continue
				}
				// Transfer ownership: the producer's batch buffers are
				// reused on its next Next(), so compact-copy first.
				owned := copyBatch(b)
				select {
				case x.ch <- owned:
				case <-done:
					x.errCh <- x.ctx.Err()
					return
				}
			}
		}()
	}
	return nil
}

// copyBatch deep-copies the live rows of b into a fresh dense batch.
func copyBatch(b *vector.Batch) *vector.Batch {
	out := &vector.Batch{Vecs: make([]*vector.Vector, len(b.Vecs))}
	for i, v := range b.Vecs {
		out.Vecs[i] = vector.NewCopy(v, b.Sel, b.N)
	}
	out.SetDense(b.N)
	return out
}

// Next implements Operator.
func (x *XchgUnion) Next() (*vector.Batch, error) {
	for {
		if err := ctxErr(x.ctx); err != nil {
			return nil, err
		}
		if x.done == len(x.children) {
			// All producers finished; drain any remaining batches.
			select {
			case b := <-x.ch:
				return b, nil
			default:
				return nil, x.firstErr
			}
		}
		var done <-chan struct{}
		if x.ctx != nil {
			done = x.ctx.Done()
		}
		select {
		case b := <-x.ch:
			return b, nil
		case err := <-x.errCh:
			x.done++
			if err != nil && x.firstErr == nil {
				x.firstErr = err
			}
		case <-done:
			return nil, x.ctx.Err()
		}
	}
}

// Close implements Operator. Closing an exchange that was never opened
// (a parent's Open failed first), or closing one again, only closes the
// children.
func (x *XchgUnion) Close() error {
	if ch := x.ch; ch != nil {
		// Drain so producers blocked on the channel can exit.
		drained := make(chan struct{})
		go func() {
			for range ch {
			}
			close(drained)
		}()
		x.wg.Wait()
		close(ch)
		<-drained
		x.ch = nil
	}
	var first error
	for _, c := range x.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PartitionGroups splits a table's row groups into at most parts
// contiguous ranges for parallel partition scans. Ranges are [lo, hi).
func PartitionGroups(numGroups, parts int) [][2]int {
	if parts > numGroups {
		parts = numGroups
	}
	if parts <= 0 {
		parts = 1
	}
	var out [][2]int
	base := numGroups / parts
	extra := numGroups % parts
	lo := 0
	for p := 0; p < parts; p++ {
		sz := base
		if p < extra {
			sz++
		}
		out = append(out, [2]int{lo, lo + sz})
		lo += sz
	}
	return out
}

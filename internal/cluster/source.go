package cluster

// shardSource is the operator behind an algebra.RemoteNode: one shard's
// streaming query, with replica failover. To the plan above it a shard
// is just another child of the exchange union.

import (
	"context"
	"fmt"
	"sync/atomic"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// ShardStats carries one shard's cumulative coordinator-side counters.
type ShardStats struct {
	Queries   atomic.Int64
	BytesIn   atomic.Int64
	Failovers atomic.Int64
}

// ShardStatsSnapshot is the JSON form of ShardStats.
type ShardStatsSnapshot struct {
	Queries   int64 `json:"queries"`
	BytesIn   int64 `json:"bytes_in"`
	Failovers int64 `json:"failovers"`
}

// Snapshot reads the counters.
func (s *ShardStats) Snapshot() ShardStatsSnapshot {
	return ShardStatsSnapshot{
		Queries:   s.Queries.Load(),
		BytesIn:   s.BytesIn.Load(),
		Failovers: s.Failovers.Load(),
	}
}

// shardSource implements core.Operator over one shard's result stream
// for one statement, failing over across the shard's replicas.
//
// Failover discipline: a retry re-runs the whole statement on the next
// replica, so it is only transparent if nothing from the failed attempt
// has been emitted downstream. In buffered mode the source drains the
// entire stream into memory before emitting anything, making failover
// safe at any point — the right trade for partial-aggregate streams,
// which are small (one row per group per shard). In unbuffered mode
// batches flow through as they arrive and failover is possible only
// until the first batch has been emitted; after that a dying node fails
// the query. Retries happen at most once per replica, in health order.
type shardSource struct {
	ctx      context.Context
	c        *client
	shard    int
	replicas []string // preferred order: healthy first
	req      []byte   // the /v1/query body every attempt posts
	schema   *vtypes.Schema
	kinds    []vtypes.Kind // schema's column kinds, for the wire decode
	buffered bool
	stats    *ShardStats

	stream  *nodeStream // live stream (unbuffered mode)
	rep     int         // replica index of the live/buffering attempt
	emitted bool
	buf     []*vector.Batch
	bufPos  int
}

// Schema implements core.Operator.
func (s *shardSource) Schema() *vtypes.Schema { return s.schema }

// Open implements core.Operator: start the stream on the first replica
// that accepts it (buffered mode also drains it here, failing over
// mid-drain as needed).
func (s *shardSource) Open() error {
	s.stats.Queries.Add(1)
	s.kinds = make([]vtypes.Kind, s.schema.Len())
	for i := range s.kinds {
		s.kinds[i] = s.schema.Col(i).Kind
	}
	if s.buffered {
		return s.fill()
	}
	return s.open(nil)
}

// open starts the stream on the first replica from s.rep on that
// accepts it; err is why the attempt before s.rep failed.
func (s *shardSource) open(err error) error {
	for ; s.rep < len(s.replicas); s.rep++ {
		if s.rep > 0 {
			s.stats.Failovers.Add(1)
		}
		if s.stream, err = s.c.openStream(s.ctx, s.replicas[s.rep], s.req, &s.stats.BytesIn); err == nil {
			return nil
		}
		if !isRetryable(err) {
			return fmt.Errorf("shard %d: %w", s.shard, err)
		}
	}
	return fmt.Errorf("shard %d: all replicas failed: %w", s.shard, err)
}

// fill drains the whole stream into s.buf, restarting on the next
// replica on any retryable failure.
func (s *shardSource) fill() error {
	err := s.open(nil)
	for err == nil {
		var b *vector.Batch
		for b, err = s.stream.next(s.kinds); err == nil && b != nil; b, err = s.stream.next(s.kinds) {
			s.buf = append(s.buf, b)
		}
		s.stream.close()
		s.stream = nil
		switch {
		case err == nil:
			return nil
		case !isRetryable(err):
			return fmt.Errorf("shard %d: %w", s.shard, err)
		}
		s.buf, s.rep = s.buf[:0], s.rep+1
		err = s.open(err)
	}
	return err
}

// Next implements core.Operator.
func (s *shardSource) Next() (*vector.Batch, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	if s.buffered {
		if s.bufPos >= len(s.buf) {
			return nil, nil
		}
		b := s.buf[s.bufPos]
		s.buf[s.bufPos] = nil
		s.bufPos++
		return b, nil
	}
	for {
		b, err := s.stream.next(s.kinds)
		if err == nil {
			if b != nil {
				s.emitted = true
			}
			return b, nil
		}
		// A replica died mid-stream. If nothing has been emitted yet the
		// retry is invisible; otherwise rows are already downstream and
		// re-running would duplicate them.
		if !isRetryable(err) || s.emitted {
			return nil, fmt.Errorf("shard %d: %w", s.shard, err)
		}
		s.stream.close()
		s.stream, s.rep = nil, s.rep+1
		if err := s.open(err); err != nil {
			return nil, err
		}
	}
}

// Close implements core.Operator.
func (s *shardSource) Close() error {
	if s.stream != nil {
		s.stream.close()
		s.stream = nil
	}
	s.buf = nil
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// A span is one timed interval at a layer boundary. Spans of one statement
// share Stmt; Parent is 0 for a statement's root span. All spans are
// recorded from the benchmark's side of the boundary (around the call into
// the layer), kept in memory, and written as JSON lines when the run ends.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Stmt   int64            `json:"stmt"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
	stmts int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// root opens the root span of a new statement.
func (t *tracer) root(name string) *span {
	t.mu.Lock()
	t.stmts++
	stmt := t.stmts
	t.mu.Unlock()
	return t.open(&span{Stmt: stmt, Name: name})
}

// child opens a span caused by parent.
func (t *tracer) child(parent *span, name string) *span {
	return t.open(&span{Parent: parent.ID, Stmt: parent.Stmt, Name: name})
}

func (t *tracer) open(s *span) *span {
	t.mu.Lock()
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = t.now()
	return s
}

func (t *tracer) end(s *span) { s.End = t.now() }

// interval records a child span whose bounds were measured elsewhere (the
// engine time a server response reports about itself).
func (t *tracer) interval(parent *span, name string, start, end int64) *span {
	s := t.child(parent, name)
	s.Start, s.End = start, end
	return s
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover, keyed by span ID. Children are clipped to the parent's
// interval; overlapping siblings are not expected (each client is serial).
func selfTimes(spans []*span) map[int64]time.Duration {
	byID := make(map[int64]*span, len(spans))
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		self[s.ID] = s.dur()
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[p.ID] -= time.Duration(hi - lo)
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

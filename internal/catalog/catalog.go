// Package catalog tracks the tables of a database instance: their
// storage and their PDT layers (committed master deltas) — standing in
// for the Ingres catalog that Vectorwise reuses (paper §I-B).
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
)

// Entry is one cataloged table.
//
// Concurrency: the Catalog's lock guards the name → entry map and the
// Layers field while a catalog method touches it. Entry
// pointers escape via Get, so mutating an Entry's fields directly is
// only safe while the caller holds the DB-level write lock (the
// vectorwise.DB reader/writer discipline); readers on the query path
// must go through Resolve, which snapshots Layers under the lock.
type Entry struct {
	Table *storage.Table
	// Layers are committed PDT layers, bottom first (nil when clean).
	Layers []*pdt.PDT
}

// Catalog is a concurrency-safe name → table map.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Entry
	// epoch is the schema epoch: a monotonic counter bumped whenever
	// cached plans may have gone stale — DDL and every stable-image swap
	// (Put: a parallel plan holds row-group ranges of the image it was
	// planned on). Plan caches include the epoch in their key, so a bump
	// makes every older plan structurally unreachable rather than
	// relying on best-effort purging. Routine DML and folds (SetLayers)
	// do not bump: plans reference tables by name and re-resolve PDT
	// layers at execution, so they stay valid.
	epoch atomic.Uint64
	// dataEpoch is the data epoch: a monotonic counter bumped whenever
	// committed data changes — DML commits, tuple-mover folds,
	// stable-image swaps (rebuilds, checkpoints, bulk loads) and
	// registration. Unlike the schema epoch it does not invalidate plans; it versions
	// the committed state itself. Epoch-snapshot cursors record the data
	// epoch they pinned, which is what "a reader sees exactly its epoch"
	// means operationally.
	dataEpoch atomic.Uint64
}

// ErrUnknownTable tags lookups of unregistered tables so callers can
// classify the failure with errors.Is (e.g. the HTTP layer maps it to
// 404 rather than 500).
var ErrUnknownTable = errors.New("unknown table")

// New creates an empty catalog.
func New() *Catalog { return &Catalog{tables: make(map[string]*Entry)} }

// Put registers or replaces a table and bumps the schema epoch.
func (c *Catalog) Put(t *storage.Table) {
	c.mu.Lock()
	c.tables[t.Meta.Name] = &Entry{Table: t}
	c.mu.Unlock()
	c.epoch.Add(1)
}

// Epoch returns the current schema epoch.
func (c *Catalog) Epoch() uint64 { return c.epoch.Load() }

// DataEpoch returns the current data epoch.
func (c *Catalog) DataEpoch() uint64 { return c.dataEpoch.Load() }

// BumpDataEpoch advances the data epoch and returns the new value. The
// DB layer calls it after publishing any committed-state change.
func (c *Catalog) BumpDataEpoch() uint64 { return c.dataEpoch.Add(1) }

// Get returns the entry for name.
func (c *Catalog) Get(name string) (*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: %w %q", ErrUnknownTable, name)
	}
	return e, nil
}

// SetLayers installs the committed PDT layers for a table.
func (c *Catalog) SetLayers(name string, layers []*pdt.PDT) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("catalog: %w %q", ErrUnknownTable, name)
	}
	e.Layers = layers
	return nil
}

// Names lists cataloged tables in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolve returns the storage and PDT layers of a table (the engines'
// entry point). The layer slice is copied under the read lock so a
// concurrent SetLayers cannot tear the read; the layers themselves are
// immutable once published.
func (c *Catalog) Resolve(name string) (*storage.Table, []*pdt.PDT, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.tables[name]
	if !ok {
		return nil, nil, fmt.Errorf("catalog: %w %q", ErrUnknownTable, name)
	}
	var layers []*pdt.PDT
	if len(e.Layers) > 0 {
		layers = append(layers, e.Layers...)
	}
	return e.Table, layers, nil
}

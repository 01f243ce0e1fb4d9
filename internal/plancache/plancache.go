// Package plancache is the versioned statement cache that amortizes the
// SQL front end away on repeated statements: a bounded LRU mapping
// (normalized SQL, schema epoch, parallelism) to a compiled artifact —
// an optimized plan template for SELECTs, a parsed AST for DML. The
// Vectorwise argument is that per-query overheads must be amortized so
// execution runs at hardware speed; for a served workload of short
// parametrized statements the dominant overhead is planning itself,
// which this cache removes from the hot path.
//
// Invalidation is structural, not best-effort: the catalog's schema
// epoch is part of the key, so after DDL, a checkpoint, or a statistics
// refresh, every stale plan simply stops being reachable and ages out of
// the LRU. There is no scan-and-purge race to get wrong.
package plancache

import (
	"container/list"
	"sync"

	"vectorwise/internal/sql"
)

// Key identifies one cached compilation.
type Key struct {
	// SQL is the normalized statement text (see Normalize).
	SQL string
	// Epoch is the catalog schema epoch the artifact was built under.
	Epoch uint64
	// Parallelism is the worker target baked into the plan by the
	// parallel rewriter.
	Parallelism int
	// Partial marks the below half of a distributed statement (see
	// DB.QueryPartial): same text, different plan.
	Partial bool
}

// Stats is a counter snapshot, exposed on the server's /v1/stats.
type Stats struct {
	// Hits counts lookups served from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that had to plan.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current entry count; Capacity the bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

type item struct {
	key Key
	val any
}

// Cache is a concurrency-safe bounded LRU. A capacity of 0 disables
// caching (every Get misses, Put is a no-op) — useful for measuring the
// uncached path.
type Cache struct {
	mu        sync.Mutex
	cap       int
	lru       *list.List // front = most recent; elements hold *item
	items     map[Key]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// New creates a cache bounded to capacity entries.
func New(capacity int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache{cap: capacity, lru: list.New(), items: make(map[Key]*list.Element)}
}

// Get returns the cached artifact for k, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*item).val, true
}

// Peek is Get without recording a miss: a hit counts (and refreshes
// recency) but an absence is silent. Pre-admission lookups use it so a
// cold statement's one real planning miss is counted once, by the path
// that actually compiles it.
func (c *Cache) Peek(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*item).val, true
}

// Put inserts (or replaces) the artifact for k, evicting the least
// recently used entry when the cache is full.
func (c *Cache) Put(k Key, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap == 0 {
		return
	}
	if el, ok := c.items[k]; ok {
		el.Value.(*item).val = v
		c.lru.MoveToFront(el)
		return
	}
	c.items[k] = c.lru.PushFront(&item{key: k, val: v})
	c.evictLocked()
}

// Resize changes the capacity, evicting down to the new bound. A new
// capacity of 0 empties and disables the cache.
func (c *Cache) Resize(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capacity
	c.evictLocked()
}

func (c *Cache) evictLocked() {
	for c.lru.Len() > c.cap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.items, el.Value.(*item).key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.lru.Len(),
		Capacity:  c.cap,
	}
}

// Normalize canonicalizes statement text for cache keying. It rides the
// SQL front end's lexer: one token-stream pass that lower-cases keywords
// and identifiers, strips comments, collapses whitespace, folds `!=` to
// `<>` and drops semicolons — so `SELECT  V FROM T;` and `select v from
// t` share one entry. String literals are preserved byte for byte,
// escaped quotes included; unlexable text keys as itself.
func Normalize(text string) string {
	return sql.Normalize(text)
}

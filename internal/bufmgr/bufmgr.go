// Package bufmgr is the buffer pool: a byte-capacity LRU cache of
// decoded column chunks, shared by every scan of a DB.
//
// The unit of caching and I/O accounting is a decoded column chunk (row
// group × column): its values and its null indicator. A miss decodes the
// chunk from the table's compressed image (storage.Table.DecodeChunk)
// and counts the chunk's compressed bytes, its values' and its null
// indicator's, as I/O. A dictionary-coded chunk (at most 256 entries) is
// cached coded: its one-byte codes and its dictionary, with no value per
// row; readers work on the codes or read through the dictionary (see
// package vector).
// A plain VARCHAR chunk is cached as an arena: its offsets over the
// table image's bytes, with no string per row. An FSST VARCHAR chunk is
// cached the same way, its offsets over the image's codes, plus one
// pointer to its symbol table; no reader decodes it whole, and the pool
// never holds its decoded text. A plain BIGINT or DOUBLE
// chunk is cached as a view of its values in the table image: the pool
// holds no copy of it. Both are charged as if the pool held their bytes
// (vectorBytes), 8 B a row for a view, so a pool's capacity means the
// same whichever way a chunk is decoded. Any other BIGINT or DATE chunk
// whose range fits 16 bits is cached narrow, its minimum plus a 1- or
// 2-byte offset a row, and charged those bytes; the storage scanner
// widens it a vector at a time, so the pool never holds its int64s. No
// chunk is cached as a string per row.
// A DB builds its pool unbounded, so it never evicts; a bounded pool
// evicts the least recently used chunks past its capacity.
package bufmgr

import (
	"container/list"
	"sync"

	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
)

// Stats counts buffer manager activity; all fields are cumulative.
type Stats struct {
	// IOBytes is the total compressed bytes of the chunks decoded.
	IOBytes int64
	// IOChunks is the number of chunk loads that decoded a chunk.
	IOChunks int64
	// Hits is the number of chunk requests served from cache.
	Hits int64
	// Evictions counts cache evictions.
	Evictions int64
}

type chunkKey struct {
	t     *storage.Table
	group int
	col   int
}

type cacheEntry struct {
	key  chunkKey
	vec  *vector.Vector
	size int64
	elem *list.Element
}

// Manager is a byte-capacity LRU buffer pool over decompressed column
// chunks, shared by all scans of a process. It implements
// storage.ChunkFetcher so the core engine's scans go through it.
// All methods are safe for concurrent use: cache state is guarded by
// mu, chunk loads happen outside the lock (a racing duplicate load is
// benign — one copy wins the cache, both are valid to read), and the
// cached vectors themselves are treated as immutable by every scan.
type Manager struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	cache    map[chunkKey]*cacheEntry
	lru      *list.List // front = most recent
	stats    Stats
}

// New creates a Manager with the given cache capacity in bytes of
// decompressed chunk payload (capacity <= 0 means effectively unbounded).
func New(capacity int64) *Manager {
	if capacity <= 0 {
		capacity = 1 << 62
	}
	return &Manager{
		capacity: capacity,
		cache:    make(map[chunkKey]*cacheEntry),
		lru:      list.New(),
	}
}

// Stats returns a snapshot of cumulative counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// vectorBytes is the decompressed in-memory size of a chunk: 8 bytes a
// row for BIGINT/DATE/DOUBLE, a view of the image's values included, 1
// for BOOLEAN, and 1 a row for a null indicator. A narrow BIGINT or DATE
// chunk is charged the width of its offsets, 1 or 2 bytes a row. A
// VARCHAR arena (a plain chunk) is charged its bytes and 4 bytes an
// offset, though its bytes are the table image's; an FSST arena its codes,
// 4 bytes an offset and its symbol table once, never its decoded size.
// Both views are charged what the pool holds once it owns the table's
// bytes. A coded chunk holds no value per row: 1 byte a row for its
// codes, plus each dictionary entry counted once however many rows share
// it (8 bytes a DOUBLE; a 16-byte header and the bytes of a string). No
// chunk the pool caches holds a string per row (storage.DecodeChunk).
func vectorBytes(v *vector.Vector) int64 {
	size := int64(len(v.I64)+len(v.F64)+len(v.DictF64()))*8 + int64(len(v.B)+len(v.Nulls)+len(v.Codes)) + int64(len(v.Dict()))*16
	if v.Off != nil {
		size += int64(len(v.Shared.Bytes)) + 4*int64(len(v.Off))
		if sym := v.Shared.Symbols; sym != nil {
			size += int64(sym.Size())
		}
	}
	if v.Narrow() {
		size += int64(len(v.Shared.U8) + 2*len(v.Shared.U16))
	}
	for _, s := range v.Dict() {
		size += int64(len(s))
	}
	return size
}

// FetchColumn implements storage.ChunkFetcher with LRU caching.
func (m *Manager) FetchColumn(t *storage.Table, group, col int) (*vector.Vector, error) {
	key := chunkKey{t, group, col}
	m.mu.Lock()
	if e, ok := m.cache[key]; ok {
		m.lru.MoveToFront(e.elem)
		m.stats.Hits++
		v := e.vec
		m.mu.Unlock()
		return v, nil
	}
	m.mu.Unlock()

	// Load outside the lock; a racing duplicate load is harmless.
	v, err := t.DecodeChunk(group, col)
	if err != nil {
		return nil, err
	}
	raw := int64(len(t.RawChunk(group, col)) + len(t.RawNullChunk(group, col)))
	m.mu.Lock()
	m.stats.IOBytes += raw
	m.stats.IOChunks++
	if _, ok := m.cache[key]; !ok {
		m.insertLocked(key, v)
	}
	m.mu.Unlock()
	return v, nil
}

// insertLocked adds an entry and evicts LRU entries over capacity.
func (m *Manager) insertLocked(key chunkKey, v *vector.Vector) {
	size := vectorBytes(v)
	e := &cacheEntry{key: key, vec: v, size: size}
	e.elem = m.lru.PushFront(e)
	m.cache[key] = e
	m.used += size
	for m.used > m.capacity && m.lru.Len() > 1 {
		back := m.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		m.lru.Remove(back)
		delete(m.cache, ev.key)
		m.used -= ev.size
		m.stats.Evictions++
	}
}

// DropTable evicts every cached chunk of t. The snapshot layer calls it
// when the last cursor pinning a superseded stable image closes: the
// image can never be scanned again, so keeping its decompressed chunks
// would only push live data out of the pool. Dropping is purely an
// eviction — a racing scan that still holds the table re-fetches on
// demand.
func (m *Manager) DropTable(t *storage.Table) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key, e := range m.cache {
		if key.t != t {
			continue
		}
		m.lru.Remove(e.elem)
		delete(m.cache, key)
		m.used -= e.size
		m.stats.Evictions++
	}
}

// Contains reports whether a chunk is currently cached (test hook).
func (m *Manager) Contains(t *storage.Table, group, col int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.cache[chunkKey{t, group, col}]
	return ok
}

// CachedBytes returns the current cache occupancy.
func (m *Manager) CachedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

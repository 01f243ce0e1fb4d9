// Package cluster generalizes the engine's exchange operator across
// processes: a coordinator hash-shards designated tables over N vwserve
// nodes (Vertica's segmentation model — big facts segmented by a key,
// dimensions replicated everywhere), plans SELECTs as per-shard partial
// statements shipped over the existing /v1/query?stream=1 NDJSON wire,
// and merges the partial batches on the coordinator through the normal
// Rows cursor. Each shard may carry k-safety-style read replicas; the
// coordinator health-checks them and fails a request over to the next
// replica when a node dies mid-stream.
package cluster

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Placement says how one table is distributed across the cluster.
type Placement struct {
	// Sharded tables are hash-partitioned on KeyCol: each row lives on
	// exactly one shard (on all of that shard's replicas). Non-sharded
	// tables are replicated in full on every node, so a sharded table's
	// join against them is shard-local when the rows it keeps are the
	// sharded table's (rewriter.Distribute checks which).
	Sharded bool `json:"sharded"`
	// KeyCol is the sharding column (sharded tables only).
	KeyCol string `json:"key_col,omitempty"`
}

// ShardMap is the cluster topology: the replica sets of each shard plus
// the placement of every sharded table. Tables not present are
// replicated (the default placement).
type ShardMap struct {
	// Shards[i] lists the base URLs of shard i's replicas, primary
	// first. Every replica of a shard holds the same data.
	Shards [][]string
	// Tables maps table name → placement for sharded tables.
	Tables map[string]Placement
}

// NumShards returns the shard count.
func (m *ShardMap) NumShards() int { return len(m.Shards) }

// Placement returns the placement of a table (replicated when unknown).
func (m *ShardMap) Placement(table string) Placement {
	if p, ok := m.Tables[table]; ok {
		return p
	}
	return Placement{}
}

// ShardForKey routes a shard-key value, in its canonical string form,
// to a shard. FNV-1a over the canonical bytes keeps routing stable
// across coordinator restarts and independent of Go's per-process map
// hashing.
func (m *ShardMap) ShardForKey(key string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum64() % uint64(len(m.Shards)))
}

// AllNodes returns every replica URL across all shards, deduplicated,
// in shard order.
func (m *ShardMap) AllNodes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, reps := range m.Shards {
		for _, u := range reps {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// ParseShardFlags builds a ShardMap from command-line form: each shard
// is a comma-separated replica URL list ("http://a:1,http://a:2"), each
// table a "name:keycol" pair.
func ParseShardFlags(shards, tables []string) (*ShardMap, error) {
	m := &ShardMap{Tables: make(map[string]Placement)}
	for i, s := range shards {
		var reps []string
		for _, u := range strings.Split(s, ",") {
			u = strings.TrimSuffix(strings.TrimSpace(u), "/")
			if u == "" {
				continue
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			reps = append(reps, u)
		}
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replica URLs", i)
		}
		m.Shards = append(m.Shards, reps)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("cluster: at least one shard is required")
	}
	for _, t := range tables {
		name, key, ok := strings.Cut(t, ":")
		name, key = strings.TrimSpace(name), strings.TrimSpace(key)
		if !ok || name == "" || key == "" {
			return nil, fmt.Errorf("cluster: bad -table %q (want name:keycol)", t)
		}
		m.Tables[strings.ToLower(name)] = Placement{Sharded: true, KeyCol: strings.ToLower(key)}
	}
	return m, nil
}

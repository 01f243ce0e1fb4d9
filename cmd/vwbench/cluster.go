package main

// The `cluster` experiment: distributed exchange measured. It stands up
// two in-process clusters — one shard vs three shards, every node
// pinned to one core so the speedup measured is sharding, not the
// intra-node parallel rewriter — loads TPC-H through the coordinator's
// CSV fan-out, and times the SQL suite on both. A second, tiny cluster
// with two replicas measures failover recovery: the primary is killed
// and the next query's wall time (detect + retry on the replica) is the
// recovery latency. CI publishes the per-query 3-shard/1-node ratio
// table in its job summary; nothing gates on it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/cluster"
	"vectorwise/internal/server"
	"vectorwise/internal/tpch"
	"vectorwise/internal/tpchdb"
)

type clusterQueryResult struct {
	Name      string `json:"name"`
	SingleNs  int64  `json:"single_ns"`
	ShardedNs int64  `json:"sharded_ns"`
	// Ratio is sharded over single: below 1 the cluster is faster.
	Ratio float64 `json:"ratio"`
}

// clusterFile is the BENCH_cluster.json artifact.
type clusterFile struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	SF         float64 `json:"sf"`
	Shards     int     `json:"shards"`
	// Per-query warm wall times, coordinator-to-last-row.
	Queries []clusterQueryResult `json:"queries"`
	// Totals across the suite.
	SingleTotalNs  int64 `json:"single_total_ns"`
	ShardedTotalNs int64 `json:"sharded_total_ns"`
	// FailoverRecoveryNs is the wall time of the first query issued
	// after the primary replica is killed: connect failure + retry on
	// the surviving replica, end to end.
	FailoverRecoveryNs int64 `json:"failover_recovery_ns"`
}

// benchCluster is a coordinator over in-process single-core nodes.
type benchCluster struct {
	co    *cluster.Coordinator
	close func()
}

func newBenchCluster(shards, replicas int, tables []string) *benchCluster {
	var closers []func()
	m := &cluster.ShardMap{Tables: make(map[string]cluster.Placement)}
	for si := 0; si < shards; si++ {
		var urls []string
		for ri := 0; ri < replicas; ri++ {
			db := vectorwise.OpenMemory()
			db.SetParallelism(1)
			s := server.New(db, server.Config{Name: fmt.Sprintf("s%dr%d", si, ri)})
			ts := httptest.NewServer(s.Handler())
			closers = append(closers, func() { ts.Close(); s.Close() })
			urls = append(urls, ts.URL)
		}
		m.Shards = append(m.Shards, urls)
	}
	for _, spec := range tables {
		name, key, ok := strings.Cut(spec, ":")
		if !ok {
			fatal(fmt.Errorf("bad table spec %q", spec))
		}
		m.Tables[name] = cluster.Placement{Sharded: true, KeyCol: key}
	}
	co, err := cluster.New(cluster.Config{Map: m, HealthInterval: time.Hour})
	if err != nil {
		fatal(err)
	}
	closers = append(closers, func() { co.Close() })
	return &benchCluster{co: co, close: func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}}
}

func (bc *benchCluster) loadTPCH(data map[string][]byte) {
	ctx := context.Background()
	for _, ddl := range tpch.DDL() {
		if _, err := bc.co.Exec(ctx, ddl); err != nil {
			fatal(err)
		}
	}
	for table, csv := range data {
		if _, err := bc.co.LoadCSV(ctx, table, bytes.NewReader(csv), cluster.LoadOptions{}); err != nil {
			fatal(fmt.Errorf("cluster load %s: %w", table, err))
		}
	}
}

// timeQuery runs a SELECT through the coordinator and returns wall time
// to the last row.
func (bc *benchCluster) timeQuery(sqlText string) (d time.Duration, rows int64) {
	start := time.Now()
	res, err := bc.co.Query(context.Background(), sqlText)
	if err != nil {
		fatal(err)
	}
	defer res.Close()
	for {
		b, err := res.NextBatch()
		if err != nil {
			fatal(err)
		}
		if b == nil {
			break
		}
		rows += int64(b.N)
	}
	return time.Since(start), rows
}

func expCluster(sf float64, shards int, outPath string) {
	fmt.Printf("== CLUSTER: 1-node vs %d-shard distributed exchange (SF %g, 1 core/node) ==\n", shards, sf)
	data, err := tpchdb.GenerateCSV(sf)
	if err != nil {
		fatal(err)
	}
	tables := []string{"lineitem:l_orderkey", "orders:o_orderkey"}
	single := newBenchCluster(1, 1, tables)
	defer single.close()
	sharded := newBenchCluster(shards, 1, tables)
	defer sharded.close()
	single.loadTPCH(data)
	sharded.loadTPCH(data)

	cf := clusterFile{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		SF:         sf,
		Shards:     shards,
	}
	ratioCol := fmt.Sprintf("%d-shard/1-node", shards)
	fmt.Printf("%-6s %12s %12s %15s %8s\n", "query", "1-node", fmt.Sprintf("%d-shard", shards), ratioCol, "rows")
	for _, q := range tpch.SQLSuite() {
		// One warm-up run each, then best of three.
		single.timeQuery(q.SQL)
		sharded.timeQuery(q.SQL)
		best := func(bc *benchCluster) (time.Duration, int64) {
			bestD := time.Duration(1 << 62)
			var rows int64
			for rep := 0; rep < 3; rep++ {
				d, n := bc.timeQuery(q.SQL)
				if d < bestD {
					bestD = d
				}
				rows = n
			}
			return bestD, rows
		}
		ds, n1 := best(single)
		dc, n2 := best(sharded)
		if n1 != n2 {
			fatal(fmt.Errorf("cluster %s: %d rows sharded vs %d single-node", q.Name, n2, n1))
		}
		cf.Queries = append(cf.Queries, clusterQueryResult{
			Name:      q.Name,
			SingleNs:  ds.Nanoseconds(),
			ShardedNs: dc.Nanoseconds(),
			Ratio:     dc.Seconds() / ds.Seconds(),
		})
		cf.SingleTotalNs += ds.Nanoseconds()
		cf.ShardedTotalNs += dc.Nanoseconds()
		fmt.Printf("%-6s %12v %12v %15.2f %8d\n", q.Name,
			ds.Round(time.Microsecond), dc.Round(time.Microsecond),
			dc.Seconds()/ds.Seconds(), n1)
	}
	fmt.Printf("%-6s %12v %12v %15.2f\n", "total",
		time.Duration(cf.SingleTotalNs).Round(time.Microsecond),
		time.Duration(cf.ShardedTotalNs).Round(time.Microsecond),
		float64(cf.ShardedTotalNs)/float64(cf.SingleTotalNs))

	cf.FailoverRecoveryNs = measureFailoverRecovery()
	fmt.Printf("failover recovery (primary killed → next query answered by replica): %v\n\n",
		time.Duration(cf.FailoverRecoveryNs).Round(time.Microsecond))

	out, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n\n", outPath)
}

// measureFailoverRecovery kills a primary replica and times the next
// query: the coordinator's connect failure, retry, and the replica's
// answer, end to end.
func measureFailoverRecovery() int64 {
	ctx := context.Background()
	var primary *httptest.Server
	m := &cluster.ShardMap{Tables: map[string]cluster.Placement{
		"fk": {Sharded: true, KeyCol: "k"},
	}}
	var urls []string
	var closers []func()
	for ri := 0; ri < 2; ri++ {
		db := vectorwise.OpenMemory()
		db.SetParallelism(1)
		s := server.New(db, server.Config{})
		ts := httptest.NewServer(s.Handler())
		closers = append(closers, func() { ts.Close(); s.Close() })
		if ri == 0 {
			primary = ts
		}
		urls = append(urls, ts.URL)
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	m.Shards = [][]string{urls}
	co, err := cluster.New(cluster.Config{Map: m, HealthInterval: time.Hour})
	if err != nil {
		fatal(err)
	}
	defer co.Close()
	if _, err := co.Exec(ctx, `CREATE TABLE fk (k BIGINT, v DOUBLE)`); err != nil {
		fatal(err)
	}
	var rows bytes.Buffer
	for i := 0; i < 10_000; i++ {
		fmt.Fprintf(&rows, "%d,%d.5\n", i, i)
	}
	if _, err := co.LoadCSV(ctx, "fk", bytes.NewReader(rows.Bytes()), cluster.LoadOptions{}); err != nil {
		fatal(err)
	}
	warm := func() {
		res, err := co.Query(ctx, `SELECT SUM(v) FROM fk`)
		if err != nil {
			fatal(err)
		}
		for {
			b, err := res.NextBatch()
			if err != nil {
				fatal(err)
			}
			if b == nil {
				break
			}
		}
		res.Close()
	}
	warm()

	primary.CloseClientConnections()
	primary.Close()
	start := time.Now()
	warm()
	return time.Since(start).Nanoseconds()
}

// Command vwbench runs the cluster experiment: it benchmarks the
// distributed exchange — 1-node vs N-shard TPC-H plus failover recovery
// latency — into BENCH_cluster.json:
//
//	vwbench -exp cluster -cluster-out BENCH_cluster.json
//
// (-cluster-sf / -cluster-shards size it). `cluster` is the only
// experiment id; any other is an error. The paper's tables are Go
// benchmarks in the root package (go test -bench . in the repository
// root), and the repository's performance trajectory is bench/
// (bash bench/run.sh, see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	exp := flag.String("exp", "cluster", "experiment id (only cluster)")
	clusterOut := flag.String("cluster-out", "BENCH_cluster.json", "output path for the cluster experiment's JSON artifact")
	clusterSF := flag.Float64("cluster-sf", 0.05, "TPC-H scale factor for the cluster experiment")
	clusterShards := flag.Int("cluster-shards", 3, "shard count for the cluster experiment")
	flag.Parse()

	if *exp != "cluster" {
		fatal(fmt.Errorf("unknown experiment id %q (only cluster; the paper's tables are go test -bench benchmarks)", *exp))
	}
	expCluster(*clusterSF, *clusterShards, *clusterOut)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vwbench:", err)
	os.Exit(1)
}

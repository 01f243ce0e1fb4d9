package cluster

// Differential test: the TPC-H SQL suite on a 3-shard cluster must be
// row-identical to the same queries on a single embedded engine. This
// is the end-to-end check that the plan split, the NDJSON wire decode,
// the coordinator's final half, and the shard routing compose to the
// same answer the single-node planner gives.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	vectorwise "vectorwise"
	"vectorwise/internal/catalog"
	"vectorwise/internal/sql"
	"vectorwise/internal/tpch"
	"vectorwise/internal/tpchdb"
)

const diffSF = 0.01

func mustParseSelect(t *testing.T, src string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.AST.(*sql.SelectStmt)
}

// distributable is the coordinator's decision on src planned from cat:
// fan out to m's shards (true), run whole on one node (false), or refuse
// (the error).
func distributable(t *testing.T, m *ShardMap, cat *catalog.Catalog, src string) (bool, error) {
	t.Helper()
	_, sharded, err := distribute(planFor(t, cat, src), m)
	return sharded, err
}

// loadTPCHCluster creates the TPC-H schema through the coordinator
// (lineitem and orders sharded on the order key — co-located — the six
// dimension tables replicated) and loads generated data via LoadCSV.
func loadTPCHCluster(t *testing.T, tc *testCluster, sf float64) {
	t.Helper()
	for _, ddl := range tpch.DDL() {
		tc.exec(t, ddl)
	}
	data, err := tpchdb.GenerateCSV(sf)
	if err != nil {
		t.Fatal(err)
	}
	for table, csv := range data {
		n, err := tc.co.LoadCSV(context.Background(), table, bytes.NewReader(csv), LoadOptions{})
		if err != nil {
			t.Fatalf("load %s: %v", table, err)
		}
		if n == 0 && table != "region" {
			t.Fatalf("load %s: 0 rows", table)
		}
	}
}

// cellsClose compares two result cells, tolerating float rounding from
// the partial-aggregate split (re-associated sums) and the wire's
// decimal round trip.
func cellsClose(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		if af == bf {
			return true
		}
		diff := math.Abs(af - bf)
		scale := math.Max(math.Abs(af), math.Abs(bf))
		return diff <= 1e-6*math.Max(scale, 1)
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

func diffRows(t *testing.T, name string, got, want [][]any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows distributed vs %d single-node", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: %d cols vs %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !cellsClose(got[i][j], want[i][j]) {
				t.Fatalf("%s row %d col %d: distributed %v vs single-node %v",
					name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestTPCHDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite loads TPC-H on four engines")
	}
	tc := newTestCluster(t, 3, 1, []string{"lineitem:l_orderkey", "orders:o_orderkey"})
	loadTPCHCluster(t, tc, diffSF)

	ref := vectorwise.OpenMemory()
	defer ref.Close()
	if _, err := tpchdb.Load(ref, diffSF); err != nil {
		t.Fatal(err)
	}

	for _, q := range tpch.SQLSuite() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			_, got := tc.query(t, q.SQL)
			want := nodeRows(t, ref, q.SQL)
			// Q19-style unordered results: compare as sets.
			stmt := mustParseSelect(t, q.SQL)
			if len(stmt.OrderBy) == 0 {
				sortRows(got)
				sortRows(want)
			}
			diffRows(t, q.Name, got, want)
		})
	}
}

// TestTPCHDifferentialRowCounts cross-checks the sharding itself: every
// sharded table's rows partition exactly across the shards.
func TestTPCHDifferentialRowCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H")
	}
	tc := newTestCluster(t, 3, 1, []string{"lineitem:l_orderkey", "orders:o_orderkey"})
	loadTPCHCluster(t, tc, diffSF)

	for _, table := range []string{"lineitem", "orders"} {
		var total, max int64
		for si := range tc.nodes {
			rows := nodeRows(t, tc.nodes[si][0], "SELECT COUNT(*) FROM "+table)
			n := int64(asFloat(rows[0][0]))
			total += n
			if n > max {
				max = n
			}
		}
		_, all := tc.query(t, "SELECT COUNT(*) FROM "+table)
		if total != int64(asFloat(all[0][0])) {
			t.Fatalf("%s: shard counts sum to %d, cluster count %v", table, total, all[0][0])
		}
		if max == total {
			t.Fatalf("%s: all %d rows on one shard; hash partitioning is broken", table, total)
		}
	}
}

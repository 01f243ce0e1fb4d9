package cluster

// Tests of what the coordinator decides before any request leaves it:
// whether a plan fans out, runs on one node or is refused (distribute),
// and — as plan pins — how rewriter.Split cuts each statement shape into
// the shard's half and the coordinator's half. The last test runs every
// fanned-out TPC-H statement through that cut in one process, shards as
// catalogs instead of HTTP nodes.

import (
	"errors"
	"testing"

	vectorwise "vectorwise"
	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/testutil"
	"vectorwise/internal/tpch"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

func testMap(t *testing.T) *ShardMap {
	t.Helper()
	m, err := ParseShardFlags(
		[]string{"http://a:1", "http://b:1", "http://c:1"},
		[]string{"lineitem:l_orderkey", "orders:o_orderkey"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tpchSchema is an empty engine holding the TPC-H DDL: the catalog the
// coordinator plans on.
func tpchSchema(t *testing.T) *vectorwise.DB {
	t.Helper()
	db := vectorwise.OpenMemory()
	t.Cleanup(func() { db.Close() })
	for _, ddl := range tpch.DDL() {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestClassify: the coordinator's decision — fan out, answer on one
// node, or refuse — is rewriter.Distribute's placement rule on the plan.
// An accepted statement gets the same verdict on two plans: the
// coordinator's, from the empty schema DB, and one from loaded TPC-H
// data, whose estimates order the inner joins the way a shard's do.
func TestClassify(t *testing.T) {
	m := testMap(t)
	schema := tpchSchema(t).Catalog()
	loaded, err := tpch.Generate(diffSF, 0)
	if err != nil {
		t.Fatal(err)
	}
	q18, _ := tpch.FindSQL("Q18")
	const (
		oneNode = iota
		fanOut
		refused
	)
	for _, c := range []struct {
		src     string
		verdict int
	}{
		// The SQL-level classifier this rule replaced gave these the same
		// verdicts.
		{`SELECT n_name FROM nation JOIN region ON n_regionkey = r_regionkey`, oneNode},
		{`SELECT l_orderkey FROM lineitem WHERE l_quantity > 40`, fanOut},
		{`SELECT o_orderpriority, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority`, fanOut},
		{`SELECT COUNT(*) FROM lineitem JOIN orders ON l_partkey = o_custkey`, refused},
		{`SELECT n_name FROM nation UNION SELECT r_name FROM region`, oneNode},
		{`SELECT n_name FROM nation UNION SELECT o_clerk FROM orders`, refused},
		{`SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)`, refused},
		{`SELECT s_name FROM supplier WHERE s_nationkey IN (SELECT n_nationkey FROM nation)`, oneNode},
		// It fanned these out: every shard emits the replicated rows a
		// left outer or anti join keeps, and a self-join off the key
		// misses the pairs that straddle two shards.
		{`SELECT COUNT(*) FROM customer LEFT JOIN orders ON c_custkey = o_custkey`, refused},
		{`SELECT COUNT(*) FROM customer ANTI JOIN orders ON c_custkey = o_custkey`, refused},
		{`SELECT COUNT(*) FROM orders x JOIN orders y ON x.o_custkey = y.o_custkey`, refused},
		// Aggregates inside the statement see one shard's rows, and a
		// key survives a projection only as a bare column.
		{`SELECT n_name FROM nation WHERE n_nationkey < (SELECT COUNT(*) FROM lineitem)`, refused},
		{`SELECT l_partkey, COUNT(*) FROM lineitem GROUP BY l_partkey UNION ALL SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey`, refused},
		{`SELECT o_orderkey FROM orders WHERE o_orderkey IN (SELECT l_orderkey + 1 FROM lineitem)`, refused},
		// The right key of a left outer join is NULL where nothing
		// matched, on every shard: grouping by it is not grouping by a key.
		{`SELECT l_orderkey, COUNT(*) FROM orders LEFT JOIN lineitem ON o_orderkey = l_orderkey GROUP BY l_orderkey UNION ALL SELECT o_orderkey, o_custkey FROM orders`, refused},
		// And it refused these without cause.
		{q18.SQL, fanOut},
		{`SELECT o_orderkey FROM orders WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem)`, fanOut},
		{`SELECT COUNT(*) FROM orders x JOIN orders y ON x.o_orderkey = y.o_orderkey`, fanOut},
		{`SELECT l_orderkey FROM lineitem UNION ALL SELECT o_orderkey FROM orders`, fanOut},
		{`SELECT l_orderkey, COUNT(*) FROM lineitem GROUP BY l_orderkey UNION ALL SELECT o_orderkey, COUNT(*) FROM orders GROUP BY o_orderkey`, fanOut},
		// A key column passes through an inner join from either input.
		{`SELECT COUNT(*) FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey`, fanOut},
		// The rows kept are the sharded side's.
		{`SELECT COUNT(*) FROM orders LEFT JOIN customer ON o_custkey = c_custkey`, fanOut},
		{`SELECT COUNT(*) FROM orders ANTI JOIN customer ON o_custkey = c_custkey`, fanOut},
	} {
		cats := []*catalog.Catalog{schema}
		if c.verdict != refused {
			cats = append(cats, loaded)
		}
		for i, cat := range cats {
			sharded, err := distributable(t, m, cat, c.src)
			switch {
			case c.verdict == refused && !errors.Is(err, ErrNotDistributable):
				t.Errorf("%s: error %v, want ErrNotDistributable", c.src, err)
			case c.verdict != refused && err != nil:
				t.Errorf("%s (plan %d): %v", c.src, i, err)
			case c.verdict != refused && sharded != (c.verdict == fanOut):
				t.Errorf("%s (plan %d): sharded = %v", c.src, i, sharded)
			}
		}
	}
}

// planFor plans src the way Coordinator.Query and a node both do.
func planFor(t *testing.T, cat *catalog.Catalog, src string) algebra.Node {
	t.Helper()
	st, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	plan, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
	if err != nil {
		t.Fatalf("plan %q: %v", src, err)
	}
	return plan
}

// TestSplitPlans pins the cut itself: below is what a shard runs for a
// "partial" request, above what the coordinator runs over the union of
// the shard streams (one stands in for the union here).
func TestSplitPlans(t *testing.T) {
	schema := tpchSchema(t)
	for _, c := range []struct{ name, src, below, above string }{
		{"pure gather: everything below, nothing above",
			`SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 40`, `
Project [l_orderkey l_quantity]
  Scan lineitem cols=[0 4] filters=[(#1 > 40)]`, `
Remote shard=0 cols=2`},

		{"ORDER BY a non-projected column: the key ships, an unbounded sort does not run twice",
			`SELECT l_orderkey FROM lineitem ORDER BY l_quantity DESC`, `
Scan lineitem cols=[0 4]`, `
Project [l_orderkey]
  Sort keys=1
    Remote shard=0 cols=2`},

		{"top-N: each shard ships its own N",
			`SELECT l_orderkey FROM lineitem ORDER BY l_quantity DESC LIMIT 5`, `
Limit 5
  Sort keys=1
    Scan lineitem cols=[0 4]`, `
Limit 5
  Project [l_orderkey]
    Sort keys=1
      Remote shard=0 cols=2`},

		{"LIMIT alone bounds both sides",
			`SELECT l_orderkey FROM lineitem LIMIT 5`, `
Limit 5
  Project [l_orderkey]
    Scan lineitem cols=[0]`, `
Limit 5
  Remote shard=0 cols=1`},

		{"GROUP BY + HAVING + ORDER BY alias: only the aggregate splits, COUNT re-aggregates as SUM",
			`SELECT l_returnflag, SUM(l_quantity) AS sq, COUNT(*) AS n FROM lineitem WHERE l_quantity > 0
			 GROUP BY l_returnflag HAVING COUNT(*) > 1 ORDER BY sq DESC LIMIT 3`, `
Aggregate groups=1 aggs=[sum(#0) count(*)] partial
  Scan lineitem cols=[4 8] filters=[(#0 > 0)]`, `
Limit 3
  Project [l_returnflag sq n]
    Sort keys=1
      Select (#2 > 1)
        Aggregate groups=1 aggs=[sum(#1) sum(#2)]
          Remote shard=0 cols=3`},

		{"AVG(x) ships SUM(x) and COUNT(x); the quotient is taken once, above",
			`SELECT l_returnflag, AVG(l_discount) AS ad, MIN(l_tax) FROM lineitem GROUP BY l_returnflag`, `
Aggregate groups=1 aggs=[sum(#0) count(#0) min(#1)] partial
  Scan lineitem cols=[6 7 8]`, `
Project [l_returnflag ad min]
  Aggregate groups=1 aggs=[sum(#1) sum(#2) min(#3)]
    Remote shard=0 cols=4`},

		{"global aggregate: the shard half is partial (no row over no input), the final is not",
			`SELECT COUNT(*), MAX(l_tax) FROM lineitem`, `
Aggregate groups=0 aggs=[count(*) max(#0)] partial
  Scan lineitem cols=[7]`, `
Project [count max]
  Aggregate groups=0 aggs=[sum(#0) max(#1)]
    Remote shard=0 cols=2`},

		{"co-located join runs whole on the shard",
			`SELECT o_orderpriority, COUNT(*) FROM orders JOIN lineitem ON l_orderkey = o_orderkey GROUP BY o_orderpriority`, `
Aggregate groups=1 aggs=[count(*)] partial
  HashJoin inner
    Scan orders cols=[0 5]
    Scan lineitem cols=[0]`, `
Project [o_orderpriority count]
  Aggregate groups=1 aggs=[sum(#1)]
    Remote shard=0 cols=2`},
	} {
		below, above := rewriter.Split(planFor(t, schema.Catalog(), c.src))
		if got := algebra.Explain(below); got != c.below[1:]+"\n" {
			t.Errorf("%s: below\n%swant%s", c.name, got, c.below)
		}
		if got := algebra.Explain(above(&algebra.RemoteNode{Out: below.Schema()})); got != c.above[1:]+"\n" {
			t.Errorf("%s: above\n%swant%s", c.name, got, c.above)
		}
	}

	// Distribute is that cut with one remote leaf per shard.
	dist, _, err := distribute(planFor(t, schema.Catalog(), `SELECT COUNT(*) FROM orders`), testMap(t))
	if err != nil {
		t.Fatal(err)
	}
	got := algebra.Explain(dist)
	want := `Project [count]
  Aggregate groups=0 aggs=[sum(#0)]
    XchgUnion width=3
      Remote shard=0 cols=1
      Remote shard=1 cols=1
      Remote shard=2 cols=1
`
	if got != want {
		t.Errorf("Distribute:\n%swant\n%s", got, want)
	}
}

// shardCatalogs splits full into k catalogs the way the cluster splits
// data over k shards: the sharded tables' rows divide by shard key (so
// joins on it stay co-located), every other table is whole everywhere.
func shardCatalogs(t *testing.T, full *catalog.Catalog, m *ShardMap, k int) []*catalog.Catalog {
	t.Helper()
	cats := make([]*catalog.Catalog, k)
	for i := range cats {
		cats[i] = catalog.New()
	}
	for _, name := range full.Names() {
		tbl, _, err := full.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Placement(name)
		if !p.Sharded {
			for _, c := range cats {
				c.Put(tbl)
			}
			continue
		}
		schema := tbl.Schema()
		cols := make([]int, schema.Len())
		for i := range cols {
			cols[i] = i
		}
		rows, err := tupleengine.Run(&algebra.ScanNode{Table: name, Cols: cols, Out: schema}, full)
		if err != nil {
			t.Fatal(err)
		}
		key := schema.ColIndex(p.KeyCol)
		builders := make([]*storage.Builder, k)
		for i := range builders {
			builders[i] = storage.NewBuilder(name, schema, 0)
		}
		for _, r := range rows {
			if err := builders[int(r[key].I64)%k].AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		for i, b := range builders {
			part, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			cats[i].Put(part)
		}
	}
	return cats
}

// TestDistributeDifferential: for every TPC-H statement the cluster
// fans out, the coordinator half over k shard halves equals the serial
// plan — k = 1 checks that the cut alone changes nothing.
func TestDistributeDifferential(t *testing.T) {
	m := testMap(t)
	full, err := tpch.Generate(diffSF, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(plan algebra.Node, cat *catalog.Catalog, remote func(*algebra.RemoteNode) (core.Operator, error)) []vtypes.Row {
		t.Helper()
		op, err := xcompile.Compile(plan, cat, xcompile.Options{Remote: remote})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := core.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	fanned := 0
	for k := 1; k <= 3; k++ {
		shards := shardCatalogs(t, full, m, k)
		mk := &ShardMap{Shards: make([][]string, k), Tables: m.Tables}
		for _, q := range tpch.SQLSuite() {
			plan := planFor(t, full, q.SQL)
			dist, sharded, err := distribute(plan, mk)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			if !sharded {
				continue
			}
			fanned++
			want := run(plan, full, nil)
			below, _ := rewriter.Split(plan)
			got := run(dist, full, func(r *algebra.RemoteNode) (core.Operator, error) {
				return xcompile.Compile(below, shards[r.Shard], xcompile.Options{})
			})
			same := testutil.SameRowsUnordered
			if mustParseSelect(t, q.SQL).OrderBy != nil {
				same = testutil.SameRows
			}
			if err := same(q.Name, want, got); err != nil {
				t.Errorf("k=%d: %v", k, err)
			}
		}
	}
	// Q2 and Q11 read replicated tables only; the other ten fan out.
	if fanned < 3*10 {
		t.Fatalf("only %d statement runs fanned out; the suite should exercise the cut", fanned)
	}
}

package cluster

// Integration tests: real vwserve nodes on httptest listeners, fronted
// by a real Coordinator. Everything runs in-process so `go test -race`
// exercises the full coordinator/node concurrency.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	vectorwise "vectorwise"
	"vectorwise/internal/server"
	"vectorwise/internal/vector"
)

// testCluster is a coordinator over shards×replicas in-process nodes.
type testCluster struct {
	co    *Coordinator
	nodes [][]*vectorwise.DB   // nodes[shard][replica]
	srvs  [][]*httptest.Server // same shape
	http  *httptest.Server     // coordinator's own HTTP face
}

func newTestCluster(t *testing.T, shards, replicas int, tables []string) *testCluster {
	t.Helper()
	tc := &testCluster{}
	m := &ShardMap{Tables: make(map[string]Placement)}
	for si := 0; si < shards; si++ {
		var dbs []*vectorwise.DB
		var srvs []*httptest.Server
		var urls []string
		for ri := 0; ri < replicas; ri++ {
			db := vectorwise.OpenMemory()
			s := server.New(db, server.Config{Name: fmt.Sprintf("s%dr%d", si, ri)})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() { ts.Close(); s.Close() })
			dbs = append(dbs, db)
			srvs = append(srvs, ts)
			urls = append(urls, ts.URL)
		}
		tc.nodes = append(tc.nodes, dbs)
		tc.srvs = append(tc.srvs, srvs)
		m.Shards = append(m.Shards, urls)
	}
	for _, spec := range tables {
		name, key, _ := strings.Cut(spec, ":")
		m.Tables[name] = Placement{Sharded: true, KeyCol: key}
	}
	co, err := New(Config{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	tc.co = co
	tc.http = httptest.NewServer(co.Handler())
	t.Cleanup(tc.http.Close)
	return tc
}

func (tc *testCluster) exec(t *testing.T, sqlText string) int64 {
	t.Helper()
	n, err := tc.co.Exec(context.Background(), sqlText)
	if err != nil {
		t.Fatalf("exec %q: %v", sqlText, err)
	}
	return n
}

// query runs a SELECT through the coordinator and collects all rows.
func (tc *testCluster) query(t *testing.T, sqlText string) ([]string, [][]any) {
	t.Helper()
	res, err := tc.co.Query(context.Background(), sqlText)
	if err != nil {
		t.Fatalf("query %q: %v", sqlText, err)
	}
	defer res.Close()
	rows, err := drainResult(res)
	if err != nil {
		t.Fatalf("drain %q: %v", sqlText, err)
	}
	return res.Columns(), rows
}

func drainResult(res *Result) ([][]any, error) {
	return collectRows(res.NextBatch)
}

// collectRows drains a cursor into boxed rows, EncodeBatch's values.
func collectRows(next func() (*vector.Batch, error)) ([][]any, error) {
	var out [][]any
	for {
		b, err := next()
		if err != nil || b == nil {
			return out, err
		}
		out = append(out, server.EncodeBatch(b)...)
	}
}

// nodeRows runs a SELECT directly on one node's embedded DB.
func nodeRows(t *testing.T, db *vectorwise.DB, sqlText string) [][]any {
	t.Helper()
	rows, err := db.QueryContext(context.Background(), sqlText)
	if err != nil {
		t.Fatalf("node query %q: %v", sqlText, err)
	}
	defer rows.Close()
	out, err := collectRows(rows.NextBatch)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sortRows orders rows canonically so unordered result sets compare.
func sortRows(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j])
	})
}

func rowsEqual(a, b [][]any) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// asFloat normalizes a result cell: EncodeBatch yields native int64 /
// float64 for in-process results, JSON decoding yields float64.
func asFloat(v any) float64 {
	switch n := v.(type) {
	case int64:
		return float64(n)
	case float64:
		return n
	}
	panic(fmt.Sprintf("not a number: %T", v))
}

const ordersDDL = `CREATE TABLE orders (o_id BIGINT, o_cust VARCHAR, o_total DOUBLE)`
const custDDL = `CREATE TABLE cust (c_name VARCHAR, c_region VARCHAR)`

// seedOrders creates a sharded orders table plus a replicated dimension
// and inserts rows through the coordinator.
func seedOrders(t *testing.T, tc *testCluster, n int) {
	t.Helper()
	tc.exec(t, ordersDDL)
	tc.exec(t, custDDL)
	var vals []string
	for i := 1; i <= n; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 'c%d', %d.5)", i, i%7, i))
	}
	if got := tc.exec(t, "INSERT INTO orders VALUES "+strings.Join(vals, ", ")); got != int64(n) {
		t.Fatalf("insert reported %d rows, want %d", got, n)
	}
	tc.exec(t, `INSERT INTO cust VALUES ('c0','east'), ('c1','west'), ('c2','east')`)
}

func TestClusterDDLBroadcastAndInsertRouting(t *testing.T) {
	tc := newTestCluster(t, 3, 1, []string{"orders:o_id"})
	seedOrders(t, tc, 100)

	// Every node has the tables; sharded rows partition (each row on
	// exactly one shard), replicated rows are everywhere.
	var total int64
	for si := range tc.nodes {
		rows := nodeRows(t, tc.nodes[si][0], `SELECT COUNT(*) FROM orders`)
		n := int64(asFloat(rows[0][0]))
		if n == 100 {
			t.Fatalf("shard %d holds all rows; sharding did not partition", si)
		}
		total += n
		crows := nodeRows(t, tc.nodes[si][0], `SELECT COUNT(*) FROM cust`)
		if int64(asFloat(crows[0][0])) != 3 {
			t.Fatalf("shard %d: replicated table has %v rows, want 3", si, crows[0][0])
		}
	}
	if total != 100 {
		t.Fatalf("shards hold %d rows total, want 100", total)
	}
}

func TestClusterReplicasIdentical(t *testing.T) {
	tc := newTestCluster(t, 2, 2, []string{"orders:o_id"})
	seedOrders(t, tc, 60)
	for si := range tc.nodes {
		a := nodeRows(t, tc.nodes[si][0], `SELECT o_id, o_cust, o_total FROM orders ORDER BY o_id`)
		b := nodeRows(t, tc.nodes[si][1], `SELECT o_id, o_cust, o_total FROM orders ORDER BY o_id`)
		if !rowsEqual(a, b) {
			t.Fatalf("shard %d replicas diverge", si)
		}
	}
}

func TestClusterGatherQuery(t *testing.T) {
	tc := newTestCluster(t, 3, 1, []string{"orders:o_id"})
	seedOrders(t, tc, 50)

	_, rows := tc.query(t, `SELECT o_id FROM orders WHERE o_id <= 10`)
	sortRows(rows)
	if len(rows) != 10 {
		t.Fatalf("gather returned %d rows, want 10", len(rows))
	}

	// Global ORDER BY + LIMIT across shards.
	_, top := tc.query(t, `SELECT o_id FROM orders ORDER BY o_id DESC LIMIT 3`)
	want := [][]any{{int64(50)}, {int64(49)}, {int64(48)}}
	if !rowsEqual(top, want) {
		t.Fatalf("top-3 = %v, want %v", top, want)
	}

	// ORDER BY a column the projection drops — the shards ship it (the
	// cut is below the projection) and the coordinator sorts, then
	// projects it away; with and without LIMIT.
	cols, top := tc.query(t, `SELECT o_id FROM orders ORDER BY o_total DESC LIMIT 3`)
	if len(cols) != 1 || cols[0] != "o_id" {
		t.Fatalf("hidden sort key leaked into columns: %v", cols)
	}
	if !rowsEqual(top, want) {
		t.Fatalf("top-3 by dropped column = %v, want %v", top, want)
	}
	_, ordered := tc.query(t, `SELECT o_id FROM orders WHERE o_id > 47 ORDER BY o_total DESC`)
	if !rowsEqual(ordered, want) {
		t.Fatalf("order-only by dropped column = %v, want %v", ordered, want)
	}
}

func TestClusterLocalQuery(t *testing.T) {
	tc := newTestCluster(t, 3, 1, []string{"orders:o_id"})
	seedOrders(t, tc, 10)
	_, rows := tc.query(t, `SELECT c_name FROM cust WHERE c_region = 'east' ORDER BY c_name`)
	if len(rows) != 2 || rows[0][0] != "c0" || rows[1][0] != "c2" {
		t.Fatalf("local query rows = %v", rows)
	}
}

func TestClusterAggregateQuery(t *testing.T) {
	tc := newTestCluster(t, 3, 1, []string{"orders:o_id"})
	seedOrders(t, tc, 100)

	// Reference: the same rows in one embedded engine.
	ref := vectorwise.OpenMemory()
	defer ref.Close()
	if _, err := ref.Exec(ordersDDL); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for i := 1; i <= 100; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 'c%d', %d.5)", i, i%7, i))
	}
	if _, err := ref.Exec("INSERT INTO orders VALUES " + strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}

	q := `SELECT o_cust, COUNT(*) AS n, SUM(o_total) AS s, AVG(o_total) AS a,
	             MIN(o_id) AS lo, MAX(o_id) AS hi
	      FROM orders GROUP BY o_cust HAVING COUNT(*) > 2 ORDER BY o_cust`
	_, got := tc.query(t, q)
	want := nodeRows(t, ref, q)
	if !rowsEqual(got, want) {
		t.Fatalf("distributed aggregate diverges:\ngot:  %v\nwant: %v", got, want)
	}

	// ORDER BY an aggregate expression the select list gives no alias:
	// the coordinator's half is the planner's own Sort, so anything a
	// node can order by, the cluster can.
	q = `SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust ORDER BY SUM(o_total) DESC, o_cust LIMIT 3`
	_, got = tc.query(t, q)
	diffRows(t, q, got, nodeRows(t, ref, q))

	// Global aggregate (no GROUP BY): exactly one row, re-aggregated from
	// the shards' partial rows.
	_, grows := tc.query(t, `SELECT COUNT(*), SUM(o_total) FROM orders WHERE o_id > 90`)
	if len(grows) != 1 {
		t.Fatalf("global aggregate returned %d rows", len(grows))
	}
	gwant := nodeRows(t, ref, `SELECT COUNT(*), SUM(o_total) FROM orders WHERE o_id > 90`)
	if !rowsEqual(grows, gwant) {
		t.Fatalf("global aggregate = %v, want %v", grows, gwant)
	}

	// Empty everywhere: COUNT comes back 0, not no-rows.
	_, erows := tc.query(t, `SELECT COUNT(*) FROM orders WHERE o_id > 1000000`)
	if len(erows) != 1 || int(asFloat(erows[0][0])) != 0 {
		t.Fatalf("empty-input global aggregate = %v", erows)
	}
}

// TestClusterGlobalAggregateEmptyShard: a shard with no qualifying rows
// must contribute nothing to an ungrouped aggregate. Its partial
// aggregate is an algebra.AggNode with Partial set, which emits no row
// over no input; a plain aggregate would emit the zero row, and MIN
// would see a 0 that is in no table.
func TestClusterGlobalAggregateEmptyShard(t *testing.T) {
	tc := newTestCluster(t, 3, 1, []string{"orders:o_id"})
	ref := vectorwise.OpenMemory()
	defer ref.Close()
	both := func(sqlText string) {
		t.Helper()
		tc.exec(t, sqlText)
		if _, err := ref.Exec(sqlText); err != nil {
			t.Fatal(err)
		}
	}
	check := func(sqlText string) {
		t.Helper()
		_, got := tc.query(t, sqlText)
		want := nodeRows(t, ref, sqlText)
		sortRows(got)
		sortRows(want)
		diffRows(t, sqlText, got, want)
	}
	both(ordersDDL)
	// One row: two of the three shards hold nothing.
	both(`INSERT INTO orders VALUES (1, 'a', 50.0)`)
	for _, q := range []string{
		`SELECT MIN(o_total) FROM orders`,
		`SELECT MAX(o_total) FROM orders`,
		`SELECT MAX(0.0 - o_total) FROM orders`,
		`SELECT o_cust, MIN(o_total), COUNT(*) FROM orders GROUP BY o_cust`,
	} {
		check(q)
	}
	// Every shard holds rows, and the predicate empties two of them.
	var vals []string
	for i := 2; i <= 40; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 'c%d', %d.5)", i, i%3, i))
	}
	both("INSERT INTO orders VALUES " + strings.Join(vals, ", "))
	for si := range tc.nodes {
		if n := asFloat(nodeRows(t, tc.nodes[si][0], `SELECT COUNT(*) FROM orders`)[0][0]); n == 0 {
			t.Fatalf("shard %d holds no rows; the predicate case needs data on every shard", si)
		}
	}
	check(`SELECT AVG(o_total), MIN(0.0 - o_total) FROM orders WHERE o_id = 1`)
	check(`SELECT AVG(o_total), MIN(o_total), MAX(o_total), COUNT(*) FROM orders`)
}

func TestClusterColocatedJoinAggregate(t *testing.T) {
	tc := newTestCluster(t, 3, 1, []string{"fact:f_k", "dim2:d_k"})
	tc.exec(t, `CREATE TABLE fact (f_k BIGINT, f_v DOUBLE)`)
	tc.exec(t, `CREATE TABLE dim2 (d_k BIGINT, d_tag VARCHAR)`)
	var fv, dv []string
	for i := 1; i <= 40; i++ {
		fv = append(fv, fmt.Sprintf("(%d, %d.25)", i, i))
		dv = append(dv, fmt.Sprintf("(%d, 't%d')", i, i%3))
	}
	tc.exec(t, "INSERT INTO fact VALUES "+strings.Join(fv, ", "))
	tc.exec(t, "INSERT INTO dim2 VALUES "+strings.Join(dv, ", "))

	// Both tables sharded on the join key → co-located, shard-local join.
	_, rows := tc.query(t, `SELECT d_tag, SUM(f_v) AS s FROM fact JOIN dim2 ON f_k = d_k GROUP BY d_tag ORDER BY d_tag`)
	if len(rows) != 3 {
		t.Fatalf("join aggregate rows = %v", rows)
	}
	var sum float64
	for _, r := range rows {
		sum += asFloat(r[1])
	}
	if want := (40*41)/2 + 40*0.25; sum != want {
		t.Fatalf("join aggregate sum = %v, want %v", sum, want)
	}
}

// placementCluster is a 3-shard cluster and one node loaded with the
// same rows: r replicated (10 rows, k = v = i); s, a and b sharded on k
// (30 rows each: s k = i % 5, v = i; a k = i, g = i % 3; b k = i + 100,
// v = i).
func placementCluster(t *testing.T) (*testCluster, *vectorwise.DB) {
	t.Helper()
	tc := newTestCluster(t, 3, 1, []string{"s:k", "a:k", "b:k"})
	ref := vectorwise.OpenMemory()
	t.Cleanup(func() { ref.Close() })
	for _, tbl := range []struct {
		name, col string
		n         int
		k, v      func(i int) int
	}{
		{"r", "v", 10, func(i int) int { return i }, func(i int) int { return i }},
		{"s", "v", 30, func(i int) int { return i % 5 }, func(i int) int { return i }},
		{"a", "g", 30, func(i int) int { return i }, func(i int) int { return i % 3 }},
		{"b", "v", 30, func(i int) int { return i + 100 }, func(i int) int { return i }},
	} {
		var vals []string
		for i := 0; i < tbl.n; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", tbl.k(i), tbl.v(i)))
		}
		for _, stmt := range []string{
			fmt.Sprintf("CREATE TABLE %s (k BIGINT, %s BIGINT)", tbl.name, tbl.col),
			"INSERT INTO " + tbl.name + " VALUES " + strings.Join(vals, ", "),
		} {
			tc.exec(t, stmt)
			if _, err := ref.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tc, ref
}

// TestClusterRefusesWhatShardsCannotAnswer: statements whose shard
// halves do not union to the answer are refused, over Query and as 400
// bad_request over HTTP. The first three were once fanned out: every
// shard counted the unmatched replicated rows of r that a left outer or
// anti join keeps, and a self-join off the key lost the pairs on two
// shards. The last would fan out if a left outer join's right key
// counted as a shard key.
func TestClusterRefusesWhatShardsCannotAnswer(t *testing.T) {
	tc, ref := placementCluster(t)
	for _, q := range []string{
		`SELECT COUNT(*) FROM r LEFT JOIN s ON r.k = s.k`,
		`SELECT COUNT(*) FROM r ANTI JOIN s ON r.k = s.k`,
		`SELECT COUNT(*) FROM a x JOIN a y ON x.g = y.g`,
		// Every shard with an unmatched row of a would add a NULL group.
		`SELECT b.k, COUNT(*) FROM a LEFT JOIN b ON a.k = b.k GROUP BY b.k UNION ALL SELECT k, v FROM s`,
	} {
		res, err := tc.co.Query(context.Background(), q)
		if err == nil {
			got, _ := drainResult(res)
			res.Close()
			t.Errorf("%s: cluster answered %v, one node %v; want ErrNotDistributable", q, got, nodeRows(t, ref, q))
			continue
		}
		if !errors.Is(err, ErrNotDistributable) {
			t.Errorf("%s: %v, want ErrNotDistributable", q, err)
		}
		body, _ := json.Marshal(server.QueryRequest{SQL: q})
		resp, err := http.Post(tc.http.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || er.Error.Code != "bad_request" {
			t.Errorf("%s over HTTP: %d %s, want 400 bad_request", q, resp.StatusCode, er.Error.Code)
		}
	}
}

// TestClusterFansOutColocatedShapes: shapes whose shard halves do union
// to the answer fan out and return what one node returns — Q18's semi
// join against an aggregate grouped by the key among them.
func TestClusterFansOutColocatedShapes(t *testing.T) {
	tc, ref := placementCluster(t)
	for _, q := range []string{
		`SELECT k, g FROM a WHERE k IN (SELECT k FROM s GROUP BY k HAVING SUM(v) > 85)`,
		`SELECT k, g FROM a WHERE k IN (SELECT k FROM s)`,
		`SELECT x.k, y.g FROM a x JOIN a y ON x.k = y.k`,
		`SELECT k FROM a UNION ALL SELECT k FROM s`,
		`SELECT s.k, r.v FROM s LEFT JOIN r ON s.v = r.k`,
		`SELECT s.v FROM s ANTI JOIN r ON s.v = r.k`,
	} {
		sharded, err := distributable(t, tc.co.m, tc.co.schema.Catalog(), q)
		if err != nil || !sharded {
			t.Errorf("%s: sharded = %v, err = %v; want a fan-out", q, sharded, err)
			continue
		}
		_, got := tc.query(t, q)
		want := nodeRows(t, ref, q)
		if len(want) == 0 {
			t.Fatalf("fixture: %s returns no rows", q)
		}
		sortRows(got)
		sortRows(want)
		diffRows(t, q, got, want)
	}
}

// TestClusterUpdateRefusesShardKey: every shard updates its rows in
// place, so an UPDATE of the shard key would leave each row on the shard
// of its old key, where a join on the key no longer finds it.
func TestClusterUpdateRefusesShardKey(t *testing.T) {
	tc, ref := placementCluster(t)
	const update = `UPDATE a SET k = k + 100`
	const join = `SELECT COUNT(*) FROM a JOIN b ON a.k = b.k`
	if _, err := tc.co.Exec(context.Background(), update); !errors.Is(err, ErrNotDistributable) {
		if _, err := ref.Exec(update); err != nil {
			t.Fatal(err)
		}
		_, got := tc.query(t, join)
		t.Fatalf("UPDATE of the shard key: err = %v, want ErrNotDistributable; the join on the key then counts %v on the cluster, %v on one node",
			err, got, nodeRows(t, ref, join))
	}
	_, got := tc.query(t, join)
	diffRows(t, join, got, nodeRows(t, ref, join))
	// Other columns, and the key of a replicated table, still update.
	if n := tc.exec(t, `UPDATE a SET g = 1 WHERE k < 4`); n != 4 {
		t.Fatalf("update of a non-key column affected %d rows, want 4", n)
	}
	if n := tc.exec(t, `UPDATE r SET k = k + 1 WHERE k < 3`); n != 3 {
		t.Fatalf("update of a replicated table's k affected %d rows, want 3", n)
	}
}

func TestClusterUpdateDelete(t *testing.T) {
	tc := newTestCluster(t, 3, 1, []string{"orders:o_id"})
	seedOrders(t, tc, 30)
	if n := tc.exec(t, `UPDATE orders SET o_total = 0 WHERE o_id <= 5`); n != 5 {
		t.Fatalf("update affected %d, want 5", n)
	}
	if n := tc.exec(t, `DELETE FROM orders WHERE o_id > 25`); n != 5 {
		t.Fatalf("delete affected %d, want 5", n)
	}
	_, rows := tc.query(t, `SELECT COUNT(*), SUM(o_total) FROM orders WHERE o_id <= 5`)
	if int(asFloat(rows[0][0])) != 5 || asFloat(rows[0][1]) != 0 {
		t.Fatalf("post-update rows = %v", rows)
	}
}

func TestClusterLoadCSV(t *testing.T) {
	tc := newTestCluster(t, 3, 1, []string{"orders:o_id"})
	tc.exec(t, ordersDDL)
	var b strings.Builder
	b.WriteString("o_id,o_cust,o_total\n")
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&b, "%d,c%d,%d.5\n", i, i%7, i)
	}
	n, err := tc.co.LoadCSV(context.Background(), "orders", strings.NewReader(b.String()), LoadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("loaded %d rows, want 40", n)
	}
	var total int64
	for si := range tc.nodes {
		rows := nodeRows(t, tc.nodes[si][0], `SELECT COUNT(*) FROM orders`)
		total += int64(asFloat(rows[0][0]))
	}
	if total != 40 {
		t.Fatalf("shards hold %d rows, want 40", total)
	}

	// CSV routing and INSERT routing must agree: the same key lands on
	// the same shard either way.
	_, rows := tc.query(t, `SELECT SUM(o_total) FROM orders`)
	if asFloat(rows[0][0]) != (40*41)/2+40*0.5 {
		t.Fatalf("sum after CSV load = %v", rows[0][0])
	}
}

// One stored value has one shard, whichever way it was loaded: the same
// keys go into one table by INSERT and into its twin by CSV, and every
// shard must then hold the same keys in both — the premise a co-located
// join on the key rests on. Each row pairs the SQL literal with a CSV
// field the node stores as the same value.
func TestClusterShardKeyRouting(t *testing.T) {
	cases := []struct {
		name, typ string
		keys      [][2]string // {SQL literal, CSV field}
	}{
		{"negative and zero-padded integers", "BIGINT", [][2]string{
			{"-5", "-5"}, {"0", "0"}, {"007", " 7"}, {"-0012", "-12 "}, {"42", "0042"},
			{"-9000000000", "-9000000000"}, {"3 - 10", "-7"},
		}},
		{"dates", "DATE", [][2]string{
			{"DATE '2011-04-05'", "2011-04-05"}, {"DATE '1969-12-31'", " 1969-12-31 "},
			{"DATE '1970-01-01'", "1970-01-01"}, {"DATE '1998-09-02'", "1998-09-02 "},
		}},
		{"strings with leading and trailing blanks", "VARCHAR", [][2]string{
			{"'abc'", "abc"}, {"' abc '", `" abc "`}, {"'  abc'", `"  abc"`}, {"'abc  '", `"abc  "`},
			{"' '", `" "`}, {"' x'", `" x"`}, {"'y '", `"y "`}, {"' z z '", `" z z "`}, {"'it''s'", "it's"},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 3, 1, []string{"by_insert:k", "by_csv:k"})
			tc.exec(t, `CREATE TABLE by_insert (k `+c.typ+`, seq BIGINT)`)
			tc.exec(t, `CREATE TABLE by_csv (k `+c.typ+`, seq BIGINT)`)
			var vals []string
			var csvText strings.Builder
			for i, k := range c.keys {
				vals = append(vals, fmt.Sprintf("(%s, %d)", k[0], i))
				fmt.Fprintf(&csvText, "%s,%d\n", k[1], i)
			}
			if n := tc.exec(t, "INSERT INTO by_insert VALUES "+strings.Join(vals, ", ")); n != int64(len(c.keys)) {
				t.Fatalf("insert reported %d rows, want %d", n, len(c.keys))
			}
			n, err := tc.co.LoadCSV(context.Background(), "by_csv", strings.NewReader(csvText.String()), LoadOptions{})
			if err != nil || n != int64(len(c.keys)) {
				t.Fatalf("LoadCSV = %d, %v; want %d rows", n, err, len(c.keys))
			}
			total := 0
			for si := range tc.nodes {
				ins := nodeRows(t, tc.nodes[si][0], `SELECT seq, k FROM by_insert ORDER BY seq`)
				csv := nodeRows(t, tc.nodes[si][0], `SELECT seq, k FROM by_csv ORDER BY seq`)
				if !rowsEqual(ins, csv) {
					t.Errorf("shard %d holds different keys by load path:\n INSERT %v\n CSV    %v", si, ins, csv)
				}
				total += len(ins)
			}
			if total != len(c.keys) {
				t.Fatalf("shards hold %d INSERTed rows, want %d", total, len(c.keys))
			}
			// What misrouting breaks: the shard-local join on the key.
			_, rows := tc.query(t, `SELECT COUNT(*) FROM by_insert JOIN by_csv ON by_insert.k = by_csv.k`)
			if got := int(asFloat(rows[0][0])); got != len(c.keys) {
				t.Errorf("co-located join on the key matched %d rows, want %d", got, len(c.keys))
			}
		})
	}
}

func TestClusterHTTPQueryAndStats(t *testing.T) {
	tc := newTestCluster(t, 2, 1, []string{"orders:o_id"})
	seedOrders(t, tc, 20)

	// Plain /v1/query against the coordinator, same wire as a node.
	body := strings.NewReader(`{"sql":"SELECT COUNT(*) FROM orders"}`)
	resp, err := http.Post(tc.http.URL+"/v1/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(qr.Rows) != 1 || int(qr.Rows[0][0].(float64)) != 20 {
		t.Fatalf("coordinator query: status=%d rows=%v", resp.StatusCode, qr.Rows)
	}

	// Streaming variant ends in a done trailer.
	sresp, err := http.Post(tc.http.URL+"/v1/query?stream=1", "application/json",
		strings.NewReader(`{"sql":"SELECT o_id FROM orders"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	dec := json.NewDecoder(sresp.Body)
	var rows int
	var done bool
	for {
		var line struct {
			Columns []string `json:"columns"`
			Rows    [][]any  `json:"rows"`
			Done    bool     `json:"done"`
		}
		if err := dec.Decode(&line); err != nil {
			break
		}
		rows += len(line.Rows)
		if line.Done {
			done = true
		}
	}
	if !done || rows != 20 {
		t.Fatalf("stream: done=%v rows=%d", done, rows)
	}

	// /v1/cluster reports topology and counters.
	cresp, err := http.Get(tc.http.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var cl ClusterResponse
	if err := json.NewDecoder(cresp.Body).Decode(&cl); err != nil {
		t.Fatal(err)
	}
	if len(cl.Shards) != 2 {
		t.Fatalf("cluster reports %d shards", len(cl.Shards))
	}
	if !cl.Tables["orders"].Sharded || cl.Tables["orders"].KeyCol != "o_id" {
		t.Fatalf("cluster tables = %v", cl.Tables)
	}
	if cl.Queries < 2 {
		t.Fatalf("queries counter = %d, want >= 2", cl.Queries)
	}
	var shardQueries int64
	for _, s := range cl.Shards {
		shardQueries += s.Stats.Queries
		if len(s.Replicas) != 1 || !s.Replicas[0].Healthy {
			t.Fatalf("replica health: %+v", s.Replicas)
		}
		if s.Stats.BytesIn <= 0 {
			t.Fatalf("shard bytes_in = %d, want > 0", s.Stats.BytesIn)
		}
	}
	if shardQueries < 2 {
		t.Fatalf("per-shard query counters sum to %d", shardQueries)
	}
}

func TestClusterRejectsBadStatements(t *testing.T) {
	tc := newTestCluster(t, 2, 1, []string{"orders:o_id", "opt:k"})
	tc.exec(t, ordersDDL)

	// Invalid SQL fails on the schema DB before any fan-out.
	if _, err := tc.co.Query(context.Background(), `SELECT no_such_col FROM orders`); err == nil {
		t.Fatal("want validation error for unknown column")
	}
	if _, err := tc.co.Exec(context.Background(), `SELECT 1 FROM orders`); err == nil {
		t.Fatal("want error for SELECT via Exec")
	}
	if _, err := tc.co.Query(context.Background(), `DELETE FROM orders`); err == nil {
		t.Fatal("want error for DML via Query")
	}
	// A NULL shard key has no shard, by either load path.
	tc.exec(t, `CREATE TABLE opt (k BIGINT NULL, v BIGINT)`)
	if _, err := tc.co.Exec(context.Background(), `INSERT INTO opt VALUES (NULL, 1)`); err == nil {
		t.Fatal("want error for INSERT of a NULL shard key")
	}
	if _, err := tc.co.LoadCSV(context.Background(), "opt", strings.NewReader("\\N,1\n"), LoadOptions{Null: `\N`}); err == nil {
		t.Fatal("want error for a CSV NULL shard key")
	}
}

// TestCoordinatorErrorsMatchNode sends the same failing statements, and a
// CSV load into an unknown table, to a node and to the coordinator: since
// clients may point at either, both must answer with the same status and
// error code.
func TestCoordinatorErrorsMatchNode(t *testing.T) {
	tc := newTestCluster(t, 2, 1, nil)
	tc.exec(t, `CREATE TABLE ra (a BIGINT)`)
	tc.exec(t, `CREATE TABLE rb (b BIGINT)`)
	var vals []string
	for i := 0; i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i%2))
	}
	tc.exec(t, "INSERT INTO ra VALUES "+strings.Join(vals, ", "))
	tc.exec(t, "INSERT INTO rb VALUES "+strings.Join(vals, ", "))
	post := func(url, body string) (int, string) {
		t.Helper()
		path := "/v1/query"
		if !strings.HasPrefix(body, "{") {
			path = "/v1/load?table=nosuch" // a CSV body
		}
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Error.Code
	}
	for _, c := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"unknown table", `{"sql":"SELECT x FROM no_such_table"}`, http.StatusNotFound, "not_found"},
		{"syntax error", `{"sql":"SELEC 1"}`, http.StatusBadRequest, "bad_request"},
		// Two million matching pairs of replicated rows outlive 1 ms.
		{"timeout", `{"sql":"SELECT COUNT(*) FROM ra JOIN rb ON a = b","timeout_ms":1}`, http.StatusGatewayTimeout, "timeout"},
		{"load into an unknown table", "1\n2\n", http.StatusNotFound, "not_found"},
	} {
		ns, nc := post(tc.srvs[0][0].URL, c.body)
		cs, cc := post(tc.http.URL, c.body)
		if ns != c.status || nc != c.code || cs != ns || cc != nc {
			t.Errorf("%s: node %d %s, coordinator %d %s; want both %d %s", c.name, ns, nc, cs, cc, c.status, c.code)
		}
	}
}

// TestClusterInsertRefusesNotNull: a routed INSERT of a NULL into a column
// not declared NULL is refused by the node that owns the row as the
// client's fault (400 bad_request), not as a failure another replica
// could answer: the coordinator passes the node's error on, status and
// code, to its own client, every replica stays healthy and none holds the
// row.
func TestClusterInsertRefusesNotNull(t *testing.T) {
	tc := newTestCluster(t, 2, 2, []string{"u:k"})
	tc.exec(t, `CREATE TABLE u (k BIGINT, v BIGINT)`)
	tc.exec(t, `INSERT INTO u VALUES (1, 1), (2, 2)`)
	if _, err := tc.co.Exec(context.Background(), `INSERT INTO u VALUES (3, NULL)`); err == nil ||
		!strings.Contains(err.Error(), `null value in column "v" of table "u"`) {
		t.Fatalf("coordinator INSERT: %v", err)
	}
	body := `{"sql":"INSERT INTO u VALUES (3, NULL)"}`
	for name, url := range map[string]string{"node": tc.srvs[0][0].URL, "coordinator": tc.http.URL} {
		resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || er.Error.Code != "bad_request" ||
			!strings.Contains(er.Error.Message, `null value in column "v" of table "u"`) {
			t.Errorf("%s: %d %s %q, want 400 bad_request", name, resp.StatusCode, er.Error.Code, er.Error.Message)
		}
	}
	for si, dbs := range tc.nodes {
		for ri, db := range dbs {
			if rows := nodeRows(t, db, `SELECT COUNT(*) FROM u WHERE k = 3`); rows[0][0] != int64(0) {
				t.Errorf("shard %d replica %d holds the refused row", si, ri)
			}
		}
	}
	if _, rows := tc.query(t, `SELECT COUNT(*) FROM u`); rows[0][0] != int64(2) {
		t.Fatalf("%v rows, want 2", rows[0][0])
	}
	resp, err := http.Get(tc.http.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cl ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&cl); err != nil {
		t.Fatal(err)
	}
	for si, s := range cl.Shards {
		for ri, r := range s.Replicas {
			if !r.Healthy {
				t.Errorf("shard %d replica %d marked unhealthy", si, ri)
			}
		}
	}
}

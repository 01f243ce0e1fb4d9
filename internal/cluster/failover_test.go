package cluster

// Failover tests: a replica dying mid-query must neither fail the query
// nor corrupt its result. The dying replica is modeled by a proxy that,
// once armed, truncates every response a few bytes in and aborts the
// connection — exactly what a killed process looks like from the
// coordinator's side of the wire.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/server"
	"vectorwise/internal/tpch"
	"vectorwise/internal/tpchdb"
)

// flakyProxy fronts one vwserve node. Unarmed it forwards faithfully;
// armed it writes at most cut bytes of any response and then kills the
// connection.
type flakyProxy struct {
	backend string
	cut     int64
	armed   chan struct{} // closed to arm
}

func newFlakyProxy(backend string, cut int64) *flakyProxy {
	return &flakyProxy{backend: backend, cut: cut, armed: make(chan struct{})}
}

func (p *flakyProxy) isArmed() bool {
	select {
	case <-p.armed:
		return true
	default:
		return false
	}
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	url := p.backend + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	if !p.isArmed() {
		_, _ = io.Copy(w, resp.Body)
		return
	}
	_, _ = io.CopyN(w, resp.Body, p.cut)
	_ = http.NewResponseController(w).Flush()
	panic(http.ErrAbortHandler)
}

// newFailoverCluster builds shards shards of two replicas each: replica
// 0 sits behind a flaky proxy, replica 1 is plain. The health prober is
// effectively disabled so replica order stays deterministic — the
// coordinator always tries the (possibly armed) proxy first.
func newFailoverCluster(t *testing.T, shards int, cut int64, tables []string) (*Coordinator, []*flakyProxy, [][]*vectorwise.DB) {
	t.Helper()
	m := &ShardMap{Tables: make(map[string]Placement)}
	var proxies []*flakyProxy
	var nodes [][]*vectorwise.DB
	for si := 0; si < shards; si++ {
		var dbs []*vectorwise.DB
		var urls []string
		for ri := 0; ri < 2; ri++ {
			db := vectorwise.OpenMemory()
			s := server.New(db, server.Config{Name: fmt.Sprintf("s%dr%d", si, ri)})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() { ts.Close(); s.Close() })
			dbs = append(dbs, db)
			if ri == 0 {
				p := newFlakyProxy(ts.URL, cut)
				pts := httptest.NewServer(p)
				t.Cleanup(pts.Close)
				proxies = append(proxies, p)
				urls = append(urls, pts.URL)
			} else {
				urls = append(urls, ts.URL)
			}
		}
		nodes = append(nodes, dbs)
		m.Shards = append(m.Shards, urls)
	}
	for _, spec := range tables {
		name, key, _ := cutSpec(spec)
		m.Tables[name] = Placement{Sharded: true, KeyCol: key}
	}
	co, err := New(Config{Map: m, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co, proxies, nodes
}

func cutSpec(spec string) (string, string, bool) {
	for i := range spec {
		if spec[i] == ':' {
			return spec[:i], spec[i+1:], true
		}
	}
	return spec, "", false
}

func coQuery(t *testing.T, co *Coordinator, sqlText string) [][]any {
	t.Helper()
	res, err := co.Query(context.Background(), sqlText)
	if err != nil {
		t.Fatalf("query %q: %v", sqlText, err)
	}
	defer res.Close()
	rows, err := drainResult(res)
	if err != nil {
		t.Fatalf("drain %q: %v", sqlText, err)
	}
	return rows
}

// TestFailoverMidQueryTPCH kills shard 0's primary replica and runs the
// TPC-H suite: every query must return exactly what it returned with
// all replicas alive, and the failover counter must move.
func TestFailoverMidQueryTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H on seven engines")
	}
	co, proxies, _ := newFailoverCluster(t, 3, 96,
		[]string{"lineitem:l_orderkey", "orders:o_orderkey"})
	for _, ddl := range tpch.DDL() {
		if _, err := co.Exec(context.Background(), ddl); err != nil {
			t.Fatal(err)
		}
	}
	data, err := tpchdb.GenerateCSV(diffSF)
	if err != nil {
		t.Fatal(err)
	}
	for table, csv := range data {
		if _, err := co.LoadCSV(context.Background(), table, bytes.NewReader(csv), LoadOptions{}); err != nil {
			t.Fatalf("load %s: %v", table, err)
		}
	}

	suite := tpch.SQLSuite()
	baseline := make(map[string][][]any)
	for _, q := range suite {
		baseline[q.Name] = coQuery(t, co, q.SQL)
	}

	// Shard 0's primary now dies 96 bytes into every response — after
	// the stream header, inside the first batch.
	close(proxies[0].armed)

	for _, q := range suite {
		got := coQuery(t, co, q.SQL)
		want := baseline[q.Name]
		stmt := mustParseSelect(t, q.SQL)
		if len(stmt.OrderBy) == 0 {
			sortRows(got)
			sortRows(want)
		}
		diffRows(t, q.Name, got, want)
	}

	stats, err := co.Query(context.Background(), `SELECT 1 FROM region LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	stats.Close()
	if n := co.stats[0].Failovers.Load(); n == 0 {
		t.Fatal("failover counter did not move")
	}
}

// TestFailoverUnbufferedGather exercises the streaming (non-merge)
// path, where failover is only legal before the first emitted batch.
func TestFailoverUnbufferedGather(t *testing.T) {
	co, proxies, _ := newFailoverCluster(t, 2, 16, []string{"ev:e_id"})
	ctx := context.Background()
	if _, err := co.Exec(ctx, `CREATE TABLE ev (e_id BIGINT, e_v DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for i := 1; i <= 200; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d.5)", i, i))
	}
	if _, err := co.Exec(ctx, "INSERT INTO ev VALUES "+joinComma(vals)); err != nil {
		t.Fatal(err)
	}

	before := coQuery(t, co, `SELECT e_id FROM ev`)
	for _, p := range proxies {
		close(p.armed) // all primaries die 16 bytes in — inside the header
	}
	after := coQuery(t, co, `SELECT e_id FROM ev`)
	sortRows(before)
	sortRows(after)
	if !rowsEqual(before, after) {
		t.Fatalf("gather after failover diverges: %d vs %d rows", len(after), len(before))
	}
	var failovers int64
	for _, s := range co.stats {
		failovers += s.Failovers.Load()
	}
	if failovers == 0 {
		t.Fatal("no failovers recorded")
	}
}

// TestFailoverAllReplicasDead pins the failure mode: when every replica
// of a shard is gone the query errors cleanly instead of hanging or
// returning partial data.
func TestFailoverAllReplicasDead(t *testing.T) {
	m := &ShardMap{Tables: map[string]Placement{"ev": {Sharded: true, KeyCol: "e_id"}}}
	var proxies []*flakyProxy
	var urls []string
	for i := 0; i < 2; i++ {
		db := vectorwise.OpenMemory()
		s := server.New(db, server.Config{})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		p := newFlakyProxy(ts.URL, 1)
		pts := httptest.NewServer(p)
		t.Cleanup(pts.Close)
		proxies = append(proxies, p)
		urls = append(urls, pts.URL)
	}
	m.Shards = [][]string{urls}

	co, err := New(Config{Map: m, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	ctx := context.Background()
	if _, err := co.Exec(ctx, `CREATE TABLE ev (e_id BIGINT, e_v DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Exec(ctx, `INSERT INTO ev VALUES (1, 1.5), (2, 2.5)`); err != nil {
		t.Fatal(err)
	}
	close(proxies[0].armed)
	close(proxies[1].armed)

	res, err := co.Query(ctx, `SELECT SUM(e_v) FROM ev`)
	if err == nil {
		_, err = drainResult(res)
		res.Close()
	}
	if err == nil {
		t.Fatal("want error when every replica is dead")
	}
}

func joinComma(parts []string) string {
	var b []byte
	for i, p := range parts {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, p...)
	}
	return string(b)
}

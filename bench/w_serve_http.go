package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/server"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// serveHTTP is the request-serving workload: the HTTP server on a loopback
// listener inside the benchmark process, a database that fits the caches,
// and two keep-alive clients in a closed loop.
//
// Why: per-request fixed costs dominate — server decode and encode,
// admission, plan cache, bind, compile, lock and snapshot pin; adhoc and
// range_agg are the same statement shape on the two sides of the plan
// cache (miss and hit); operators do little.
type serveHTTP struct {
	cfg  config
	sf   float64
	db   *vectorwise.DB
	srv  *server.Server
	hs   *http.Server
	base string

	clientsHTTP []*httpClient
	orderKeys   []int64
	custKeys    []int64
	rows        map[string]int64
}

const (
	shPoint = iota
	shPrepared
	shRangeAgg
	shAdhoc
	shStream
	shQ1
)

var serveHTTPKinds = []string{"point", "prepared", "range_agg", "adhoc", "stream", "q1_http"}

// serveHTTPMix is each client's statement count per kind per round.
var serveHTTPMix = []struct{ kind, count int }{
	{shPoint, 200}, {shPrepared, 100}, {shRangeAgg, 80}, {shAdhoc, 40}, {shStream, 20}, {shQ1, 20},
}

const (
	sqlPoint    = `SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate, o_orderpriority FROM orders WHERE o_orderkey = ?`
	sqlPrepared = `SELECT c_custkey, c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = ?`
	sqlRangeAgg = `SELECT COUNT(*) AS n, SUM(l_extendedprice) AS total FROM lineitem WHERE l_shipdate BETWEEN ? AND ?`
	sqlStream   = `SELECT l_orderkey, l_extendedprice, l_shipdate FROM lineitem WHERE l_shipdate BETWEEN ? AND ?`

	rangeAggDays = 30
	// streamDays yields about 10 K of SF 0.05's 300 K lineitems.
	streamDays = 83
)

func sqlAdhoc(lo, hi int64) string {
	return fmt.Sprintf(`SELECT COUNT(*) AS n, SUM(l_extendedprice) AS total FROM lineitem WHERE l_shipdate BETWEEN DATE '%s' AND DATE '%s'`,
		vtypes.FormatDate(lo), vtypes.FormatDate(hi))
}

func newServeHTTP(cfg config) *serveHTTP {
	return &serveHTTP{cfg: cfg, sf: sfSmall * cfg.scale, rows: map[string]int64{}}
}

func (w *serveHTTP) name() string    { return "serve_http" }
func (w *serveHTTP) kinds() []string { return serveHTTPKinds }
func (w *serveHTTP) clients() int    { return 2 }
func (w *serveHTTP) maxRounds() int  { return 0 }

func (w *serveHTTP) setup() error {
	db, _, err := loadTPCH(w.sf, 1)
	if err != nil {
		return err
	}
	w.db = db
	for _, t := range []struct {
		table string
		col   int
		dst   *[]int64
	}{{"orders", tpch.OOrderKey, &w.orderKeys}, {"customer", tpch.CCustKey, &w.custKeys}} {
		ent, err := db.Catalog().Get(t.table)
		if err != nil {
			return err
		}
		v, err := ent.Table.ReadAllColumn(t.col)
		if err != nil {
			return err
		}
		*t.dst = v.I64
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = server.New(db, server.Config{})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go w.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed from close()
	w.base = "http://" + ln.Addr().String()

	for c := 0; c < w.clients(); c++ {
		hc, err := newHTTPClient(w.base)
		if err != nil {
			return err
		}
		w.clientsHTTP = append(w.clientsHTTP, hc)
	}
	return nil
}

func (w *serveHTTP) close() {
	for _, hc := range w.clientsHTTP {
		hc.close()
	}
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := w.hs.Shutdown(ctx); err != nil {
			w.hs.Close()
		}
		cancel()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.db != nil {
		w.db.Close()
	}
}

func (w *serveHTTP) plan(r int) [][]op {
	lists := make([][]op, w.clients())
	for c := range lists {
		rng := roundRand(w.cfg.seed, r, c)
		hc := w.clientsHTTP[c]
		var ops []op
		for _, m := range serveHTTPMix {
			for i := 0; i < m.count; i++ {
				var o op
				switch m.kind {
				case shPoint:
					key := w.orderKeys[rng.IntN(len(w.orderKeys))]
					o = w.seeded(hc, m.kind, hc.sqlBody(sqlPoint, strconv.FormatInt(key, 10)), false, sqlPoint, key)
				case shPrepared:
					key := w.custKeys[rng.IntN(len(w.custKeys))]
					o = w.seeded(hc, m.kind, hc.stmtBody(strconv.FormatInt(key, 10)), false, sqlPrepared, key)
				case shRangeAgg, shStream:
					text, days := sqlRangeAgg, int64(rangeAggDays)
					if m.kind == shStream {
						text, days = sqlStream, streamDays
					}
					lo := dateLo + rng.Int64N(dateHi-dateLo-days)
					params := fmt.Sprintf("%q,%q", vtypes.FormatDate(lo), vtypes.FormatDate(lo+days))
					o = w.seeded(hc, m.kind, hc.sqlBody(text, params), m.kind == shStream,
						text, vtypes.DateValue(lo), vtypes.DateValue(lo+days))
				case shAdhoc:
					lo := dateLo + rng.Int64N(dateHi-dateLo-rangeAggDays)
					text := sqlAdhoc(lo, lo+rangeAggDays)
					o = w.seeded(hc, m.kind, hc.sqlBody(text, ""), false, text)
				case shQ1:
					o = w.q1(hc)
				}
				ops = append(ops, o)
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		lists[c] = ops
	}
	return lists
}

// seeded builds an op for a seeded-parameter request. Timed executions
// check the row count the response reports; the verified round decodes the
// whole response and compares it with the same statement run embedded with
// data skipping off.
func (w *serveHTTP) seeded(hc *httpClient, kind int, body []byte, stream bool, text string, args ...any) op {
	name := serveHTTPKinds[kind]
	return op{kind: kind, run: func(verify bool) (int64, error) {
		resp, err := hc.do(body, stream, verify)
		if err != nil {
			return 0, err
		}
		if !verify {
			if !stream && resp.rows != 1 {
				return resp.rows, fmt.Errorf("%d rows, want 1", resp.rows)
			}
			if stream && resp.rows == 0 {
				return 0, fmt.Errorf("empty stream")
			}
			return resp.rows, nil
		}
		want, err := drainNoSkip(w.db, text, args...)
		if err != nil {
			return 0, err
		}
		got, err := wireDigest(want, resp.decoded)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return resp.rows, want.diff(name, got)
	}}
}

func (w *serveHTTP) q1(hc *httpClient) op {
	body := hc.sqlBody(sqlQ1, "")
	return op{kind: shQ1, run: func(verify bool) (int64, error) {
		resp, err := hc.do(body, false, verify)
		if err != nil {
			return 0, err
		}
		if !verify {
			if resp.rows != w.rows["q1"] {
				return resp.rows, fmt.Errorf("%d rows, want %d", resp.rows, w.rows["q1"])
			}
			return resp.rows, nil
		}
		want, err := w.cfg.golden.want(w.db, w.sf, "q1", sqlQ1)
		if err != nil {
			return 0, err
		}
		w.rows["q1"] = want.Rows
		got, err := wireDigest(want, resp.decoded)
		if err != nil {
			return 0, fmt.Errorf("q1: %w", err)
		}
		return resp.rows, want.diff("q1", got)
	}}
}

// wireDigest digests decoded response rows using the column classes of the
// reference digest (the wire form does not tell 5.0 from 5).
func wireDigest(want *digest, rows [][]any) (*digest, error) {
	got := &digest{Cols: make([]colSum, len(want.Cols))}
	for i := range got.Cols {
		got.Cols[i].Class = want.Cols[i].Class
	}
	return got, got.addWireRows(rows)
}

func (w *serveHTTP) afterRound() error { return nil }

// stats reads the server's own counters from outside, over /v1/stats.
func (w *serveHTTP) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := w.clientsHTTP[0].hc.Get(w.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (w *serveHTTP) counters() (map[string]float64, error) {
	st, err := w.stats()
	return map[string]float64{
		"plan_hits": float64(st.PlanCache.Hits), "plan_misses": float64(st.PlanCache.Misses),
		"admitted": float64(st.Admission.Admitted), "rejected": float64(st.Admission.Rejected),
		"abandoned": float64(st.Admission.Abandoned),
	}, err
}
func (w *serveHTTP) finish() error { return nil }

// httpClient is one closed-loop client: its own keep-alive connection, its
// own server session with one named prepared statement.
type httpClient struct {
	hc      *http.Client
	base    string
	session string
	buf     bytes.Buffer
}

// httpResponse is what a request yields to its caller.
type httpResponse struct {
	rows      int64
	bytes     int64
	ttfb      time.Duration // request sent to first response byte
	elapsedMs float64       // the engine time the server reports about itself
	decoded   [][]any       // verify only
}

func newHTTPClient(base string) (*httpClient, error) {
	c := &httpClient{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second},
		base: base,
	}
	resp, err := c.hc.Post(base+"/v1/session", "application/json", nil)
	if err != nil {
		return nil, err
	}
	var sess struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sess)
	resp.Body.Close()
	if err != nil || sess.ID == "" {
		return nil, fmt.Errorf("create session: %v (status %d)", err, resp.StatusCode)
	}
	c.session = sess.ID
	prep, _ := json.Marshal(server.PrepareRequest{Session: sess.ID, Name: "cust", SQL: sqlPrepared})
	resp, err = c.hc.Post(base+"/v1/prepare", "application/json", bytes.NewReader(prep))
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("prepare: status %d", resp.StatusCode)
	}
	return c, nil
}

func (c *httpClient) close() {
	if c.session != "" {
		req, err := http.NewRequest(http.MethodDelete, c.base+"/v1/session/"+c.session, nil)
		if err == nil {
			if resp, err := c.hc.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}
	c.hc.CloseIdleConnections()
}

// sqlBody renders a /v1/query body for a statement text; params is the
// already-rendered JSON parameter list without brackets.
func (c *httpClient) sqlBody(text, params string) []byte {
	q, _ := json.Marshal(text)
	return fmt.Appendf(nil, `{"sql":%s,"params":[%s]}`, q, params)
}

// stmtBody renders a /v1/query body that executes the session's prepared
// statement by name.
func (c *httpClient) stmtBody(params string) []byte {
	return fmt.Appendf(nil, `{"stmt":"cust","session":%q,"params":[%s]}`, c.session, params)
}

// do posts one query and reads the whole response. Timed calls extract
// only the row count and the reported engine time; decode additionally
// parses every row for the verified round.
func (c *httpClient) do(body []byte, stream, decode bool) (httpResponse, error) {
	var r httpResponse
	url := c.base + "/v1/query"
	if stream {
		url += "?stream=1"
	}
	start := time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.ttfb = time.Since(start)
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return r, err
	}
	raw := c.buf.Bytes()
	r.bytes = int64(len(raw))
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if !stream {
		var qr struct {
			Rows      []json.RawMessage `json:"rows"`
			ElapsedMs float64           `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(raw, &qr); err != nil {
			return r, err
		}
		r.rows, r.elapsedMs = int64(len(qr.Rows)), qr.ElapsedMs
		if decode {
			for _, row := range qr.Rows {
				vals, err := decodeRow(row)
				if err != nil {
					return r, err
				}
				r.decoded = append(r.decoded, vals)
			}
		}
		return r, nil
	}
	// NDJSON: header line, batch lines, trailer line.
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	var trailer server.StreamTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil || !trailer.Done {
		return r, fmt.Errorf("stream truncated: %s", lines[len(lines)-1])
	}
	r.rows, r.elapsedMs = trailer.RowsTotal, trailer.ElapsedMs
	if decode {
		for _, line := range lines[1 : len(lines)-1] {
			var batch struct {
				Rows []json.RawMessage `json:"rows"`
			}
			if err := json.Unmarshal(line, &batch); err != nil {
				return r, err
			}
			for _, row := range batch.Rows {
				vals, err := decodeRow(row)
				if err != nil {
					return r, err
				}
				r.decoded = append(r.decoded, vals)
			}
		}
		if int64(len(r.decoded)) != r.rows {
			return r, fmt.Errorf("stream carried %d rows, trailer says %d", len(r.decoded), r.rows)
		}
	}
	return r, nil
}

// decodeRow parses one wire row keeping numbers exact.
func decodeRow(raw json.RawMessage) ([]any, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var vals []any
	err := dec.Decode(&vals)
	return vals, err
}

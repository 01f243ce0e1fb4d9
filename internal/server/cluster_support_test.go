package server

// Tests for the server's cluster-facing satellites: the /v1/health
// probe, the /v1/load bulk-ingest endpoint, drain-mode refusal, and the
// typed error_kind field on the streaming error trailer.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestHealthEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Name: "shard0-a"})

	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" {
		t.Fatalf("status = %q, want ok", hr.Status)
	}
	if hr.Name != "shard0-a" {
		t.Fatalf("name = %q, want shard0-a", hr.Name)
	}

	s.BeginDrain()
	resp2, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var hr2 HealthResponse
	if err := json.NewDecoder(resp2.Body).Decode(&hr2); err != nil {
		t.Fatal(err)
	}
	if hr2.Status != "draining" {
		t.Fatalf("status after BeginDrain = %q, want draining", hr2.Status)
	}
}

func TestLoadEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := postQuery(t, ts, QueryRequest{SQL: `CREATE TABLE pts (id BIGINT, x DOUBLE, label VARCHAR, day DATE)`}, nil); code != http.StatusOK {
		t.Fatalf("create status %d", code)
	}

	csv := "1,1.5,alpha,2024-01-02\n2,2.5,beta,2024-01-03\n"
	resp, err := http.Post(ts.URL+"/v1/load?table=pts", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status = %d", resp.StatusCode)
	}
	var lr LoadResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if lr.RowsLoaded != 2 {
		t.Fatalf("rows_loaded = %d, want 2", lr.RowsLoaded)
	}
	var qr QueryResponse
	if code := postQuery(t, ts, QueryRequest{SQL: `SELECT COUNT(*) c FROM pts`}, &qr); code != http.StatusOK {
		t.Fatalf("count status %d", code)
	}
	if n, _ := qr.Rows[0][0].(float64); int(n) != 2 {
		t.Fatalf("count after load = %v", qr.Rows[0][0])
	}

	// header=true (any strconv.ParseBool form, not just header=1) skips
	// the header record instead of rejecting it as data.
	withHeader := "id,x,label,day\n3,3.5,gamma,2024-01-04\n"
	resp3, err := http.Post(ts.URL+"/v1/load?table=pts&header=true", "text/csv", strings.NewReader(withHeader))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var lr3 LoadResponse
	if err := json.NewDecoder(resp3.Body).Decode(&lr3); err != nil {
		t.Fatal(err)
	}
	if resp3.StatusCode != http.StatusOK || lr3.RowsLoaded != 1 {
		t.Fatalf("load header=true: status %d rows %d, want 200/1", resp3.StatusCode, lr3.RowsLoaded)
	}

	// Unknown table: 404, not 400.
	resp2, err := http.Post(ts.URL+"/v1/load?table=nope", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("load unknown table status = %d, want 404", resp2.StatusCode)
	}
}

func TestDrainRefusesNewStatements(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()

	body, _ := json.Marshal(QueryRequest{SQL: "SELECT k FROM kv"})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while draining = %d, want 503", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != "draining" {
		t.Fatalf("error code = %q, want draining", er.Error.Code)
	}

	resp2, err := http.Post(ts.URL+"/v1/load?table=kv", "text/csv", strings.NewReader("9,z\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("load while draining = %d, want 503", resp2.StatusCode)
	}
}

// TestDrainLetsInFlightStreamFinish pins the drain contract a cluster
// depends on: a streaming cursor opened before BeginDrain runs to
// completion (done trailer and all) even though new statements are
// already being refused.
func TestDrainLetsInFlightStreamFinish(t *testing.T) {
	s, ts := newBigTestServer(t, Config{}, 20000)

	body, _ := json.Marshal(QueryRequest{SQL: "SELECT k, v FROM big"})
	resp, err := http.Post(ts.URL+"/v1/query?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}

	// The stream is open; drain now, then read it to the end.
	s.BeginDrain()
	dec := json.NewDecoder(resp.Body)
	var sawDone bool
	var rows int64
	for {
		var line struct {
			Rows [][]any    `json:"rows"`
			Done bool       `json:"done"`
			Err  *ErrorBody `json:"error"`
		}
		if err := dec.Decode(&line); err != nil {
			break
		}
		rows += int64(len(line.Rows))
		if line.Err != nil {
			t.Fatalf("in-flight stream errored during drain: %+v", line.Err)
		}
		if line.Done {
			sawDone = true
			break
		}
	}
	if !sawDone {
		t.Fatal("in-flight stream truncated by drain")
	}
	if rows != 20000 {
		t.Fatalf("rows = %d, want 20000", rows)
	}
}

// TestStreamTrailerErrorKindTimeout pins the typed trailer end to end:
// a statement that exceeds its deadline mid-stream reports
// error_kind "timeout" on the trailer line.
func TestStreamTrailerErrorKindTimeout(t *testing.T) {
	_, ts := newBigTestServer(t, Config{QueryTimeout: 50 * time.Millisecond}, 400000)

	// A sort forces full materialization before the first batch, so the
	// deadline reliably expires while the cursor is executing.
	status, lines := postStream(t, ts, QueryRequest{SQL: "SELECT k, v FROM big ORDER BY v DESC"})
	if status != http.StatusOK {
		t.Fatalf("status = %d (timeout must surface as trailer, not HTTP status)", status)
	}
	if len(lines) == 0 {
		t.Fatal("no NDJSON lines")
	}
	var trailer StreamErrorTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
		t.Fatal(err)
	}
	if trailer.Error.Message == "" {
		t.Fatalf("last line is not an error trailer: %s", lines[len(lines)-1])
	}
	if trailer.Kind != "timeout" {
		t.Fatalf("error_kind = %q, want timeout (trailer: %s)", trailer.Kind, lines[len(lines)-1])
	}
}

func TestErrorKindClassification(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{context.DeadlineExceeded, "timeout"},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), "timeout"},
		{context.Canceled, "canceled"},
		{fmt.Errorf("wrap: %w", context.Canceled), "canceled"},
		{errors.New("vectorwise: unknown column"), "query"},
	}
	for _, c := range cases {
		if got := errorKind(c.err); got != c.want {
			t.Errorf("errorKind(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestPartialRequest: "partial" answers with the shard's half of the
// statement — here the partial aggregate's columns (AVG as its SUM and
// COUNT), not the statement's — even when the whole statement's plan is
// already cached under the same text, and is refused for anything but a
// plain SELECT.
func TestPartialRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const q = `SELECT AVG(k) AS a FROM kv WHERE k >= 2`
	var whole, half QueryResponse
	if code := postQuery(t, ts, QueryRequest{SQL: q}, &whole); code != http.StatusOK {
		t.Fatalf("whole: status %d", code)
	}
	if code := postQuery(t, ts, QueryRequest{SQL: q, Partial: true}, &half); code != http.StatusOK {
		t.Fatalf("partial: status %d", code)
	}
	if len(whole.Rows) != 1 || whole.Rows[0][0].(float64) != 2.5 {
		t.Fatalf("whole statement: %v", whole.Rows)
	}
	if len(half.Columns) != 2 || len(half.Rows) != 1 || half.Rows[0][0].(float64) != 5 || half.Rows[0][1].(float64) != 2 {
		t.Fatalf("partial half: columns %v rows %v, want one row (5, 2)", half.Columns, half.Rows)
	}
	// An ungrouped partial over no rows is no row, not a zero row.
	half = QueryResponse{}
	if code := postQuery(t, ts, QueryRequest{SQL: `SELECT MIN(k) FROM kv WHERE k > 9`, Partial: true}, &half); code != http.StatusOK || len(half.Rows) != 0 {
		t.Fatalf("empty partial: status %d rows %v", code, half.Rows)
	}
	for _, bad := range []QueryRequest{
		{SQL: `DELETE FROM kv`, Partial: true},
		{SQL: `SELECT k FROM kv WHERE k = ?`, Partial: true, Params: []any{1}},
		{SQL: q, Partial: true, Explain: true},
	} {
		if code := postQuery(t, ts, bad, nil); code != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", bad, code)
		}
	}
	var n QueryResponse
	postQuery(t, ts, QueryRequest{SQL: `SELECT COUNT(*) FROM kv`}, &n)
	if n.Rows[0][0].(float64) != 3 {
		t.Fatalf("a refused partial DELETE ran: %v rows left", n.Rows[0][0])
	}
}

package cluster

// HTTP client side of the inter-node wire. Nodes are plain vwserve
// processes; the coordinator talks to them over the same public
// /v1/query, /v1/load and /v1/health endpoints any client uses, so a
// "cluster node" needs zero node-side code beyond the server package.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"vectorwise/internal/server"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// retryableError marks a shard-request failure that a different replica
// might not reproduce: transport errors, truncated streams, a draining
// or overloaded node, a node-side cancellation. Deterministic failures
// (the statement itself is bad — error_kind "query") and timeouts are
// not retryable: every replica would fail identically, or the retry
// would burn the remaining deadline repeating a too-slow statement.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

func retryable(err error) error { return &retryableError{err: err} }

func isRetryable(err error) bool {
	var re *retryableError
	return errors.As(err, &re)
}

// client is the coordinator's HTTP client to the data nodes.
type client struct {
	http    *http.Client
	timeout time.Duration
}

func newClient(timeout time.Duration) *client {
	return &client{http: &http.Client{}, timeout: timeout}
}

func (c *client) post(ctx context.Context, url string, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, retryable(err)
	}
	return resp, nil
}

// checkStatus converts a non-200 response into a server.NodeError,
// marking the ones another replica could answer (drain, overload,
// internal) as retryable.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	defer resp.Body.Close()
	var er server.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&er); err != nil || er.Error.Message == "" {
		er.Error = server.ErrorBody{Code: "internal", Message: resp.Status}
	}
	err := fmt.Errorf("cluster: %w", &server.NodeError{Status: resp.StatusCode, Body: er.Error})
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		return retryable(err)
	}
	return err
}

// queryBody renders the /v1/query request for a statement; partial asks
// the node for its half of a distributed SELECT (server.QueryRequest).
func (c *client) queryBody(sqlText string, partial bool) []byte {
	body, _ := json.Marshal(server.QueryRequest{SQL: sqlText, Partial: partial, TimeoutMs: c.timeout.Milliseconds()})
	return body
}

// exec runs a non-streaming statement (DDL/DML) on one node.
func (c *client) exec(ctx context.Context, baseURL, sqlText string) (*server.QueryResponse, error) {
	resp, err := c.post(ctx, baseURL+"/v1/query", "application/json", c.queryBody(sqlText, false))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return nil, err
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, retryable(fmt.Errorf("cluster: decoding response from %s: %w", baseURL, err))
	}
	return &qr, nil
}

// load ships CSV bytes into one node's table via /v1/load.
func (c *client) load(ctx context.Context, baseURL, table string, header bool, null string, data []byte) (int64, error) {
	q := url.Values{"table": {table}}
	if header {
		q.Set("header", "1")
	}
	if null != "" {
		q.Set("null", null)
	}
	resp, err := c.post(ctx, baseURL+"/v1/load?"+q.Encode(), "text/csv", data)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return 0, err
	}
	var lr server.LoadResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return 0, retryable(err)
	}
	return lr.RowsLoaded, nil
}

// health probes one node's /v1/health.
func (c *client) health(ctx context.Context, baseURL string) (*server.HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/health", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: health returned %d", resp.StatusCode)
	}
	var hr server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return nil, err
	}
	return &hr, nil
}

// countingReader counts bytes received off the wire into an atomic.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// streamLine is one NDJSON line of a node's streamed query response —
// the union of server.StreamHeader, StreamBatch, StreamTrailer and
// StreamErrorTrailer.
type streamLine struct {
	Columns []string          `json:"columns"`
	Rows    [][]any           `json:"rows"`
	Done    bool              `json:"done"`
	Error   *server.ErrorBody `json:"error"`
	Kind    string            `json:"error_kind"`
}

// nodeStream is one open streaming query against one node.
type nodeStream struct {
	body io.Closer
	dec  *json.Decoder
	cols []string
}

// openStream starts a streaming SELECT (a queryBody request) on one
// node. bytesIn, when non-nil, accumulates wire bytes received.
func (c *client) openStream(ctx context.Context, baseURL string, body []byte, bytesIn *atomic.Int64) (*nodeStream, error) {
	resp, err := c.post(ctx, baseURL+"/v1/query?stream=1", "application/json", body)
	if err != nil {
		return nil, err
	}
	if err := checkStatus(resp); err != nil {
		return nil, err
	}
	var r io.Reader = resp.Body
	if bytesIn != nil {
		r = &countingReader{r: resp.Body, n: bytesIn}
	}
	dec := json.NewDecoder(r)
	dec.UseNumber() // exact int64 transport: no float64 round-trip
	var hdr streamLine
	if err := dec.Decode(&hdr); err != nil {
		resp.Body.Close()
		return nil, retryable(fmt.Errorf("cluster: reading stream header from %s: %w", baseURL, err))
	}
	if hdr.Error != nil {
		resp.Body.Close()
		return nil, trailerError(&hdr, baseURL)
	}
	return &nodeStream{body: resp.Body, dec: dec, cols: hdr.Columns}, nil
}

// next returns the next batch of the stream, (nil, nil) on the done
// trailer. A stream that ends without a trailer was truncated by a
// dying node — that is retryable.
func (s *nodeStream) next(kinds []vtypes.Kind) (*vector.Batch, error) {
	for {
		var line streamLine
		if err := s.dec.Decode(&line); err != nil {
			return nil, retryable(fmt.Errorf("cluster: stream truncated: %w", err))
		}
		switch {
		case line.Error != nil:
			return nil, trailerError(&line, "")
		case line.Done:
			return nil, nil
		case len(line.Rows) > 0:
			return server.DecodeBatch(line.Rows, kinds)
		default:
			// Empty rows line: keep reading.
		}
	}
}

func (s *nodeStream) close() {
	if s.body != nil {
		s.body.Close()
	}
}

// trailerError types a node-reported stream failure using the
// error_kind satellite: "query" failures are deterministic (fail fast),
// "canceled" means the node's side of the request died (drain,
// shutdown — retry a replica), and "timeout" means the statement
// exceeded the node deadline (a retry would too).
func trailerError(line *streamLine, node string) error {
	err := fmt.Errorf("cluster: node error: %s (%s)", line.Error.Message, line.Error.Code)
	if node != "" {
		err = fmt.Errorf("cluster: node %s error: %s (%s)", node, line.Error.Message, line.Error.Code)
	}
	if line.Kind == "canceled" {
		return retryable(err)
	}
	return err
}

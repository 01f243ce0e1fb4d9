package cluster

// The coordinator's ?stream=1 face against a node's: same bytes, same
// protection from a client that stops reading.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vectorwise/internal/server"
)

// newBigCluster is a coordinator (with the given shard-request timeout)
// over `shards` single-replica nodes, each bulk-loaded with rowsPerShard
// rows of big(k, v, tag) — enough NDJSON that a stream outlives short
// timeouts and overflows every socket buffer on the way to a client
// that is not reading.
func newBigCluster(t *testing.T, shards, rowsPerShard int, timeout time.Duration) (*testCluster, *httptest.Server) {
	t.Helper()
	tc := newTestCluster(t, shards, 1, []string{"big:k"})
	co, err := New(Config{Map: tc.co.Map(), Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	if _, err := co.Exec(context.Background(), `CREATE TABLE big (k BIGINT, v DOUBLE, tag VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	ks := make([]int64, rowsPerShard)
	vs := make([]float64, rowsPerShard)
	tags := make([]string, rowsPerShard)
	for si := range tc.nodes {
		for i := range ks {
			ks[i] = int64(si*rowsPerShard + i)
			vs[i] = float64((i*7919)%10007) / 8
			tags[i] = fmt.Sprintf("tag-%d-%s", i%97, strings.Repeat("x", i%40))
		}
		if _, err := tc.nodes[si][0].LoadBatch("big", []any{ks, vs, tags}, nil); err != nil {
			t.Fatal(err)
		}
	}
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	return tc, front
}

// nodeAdmission reads one node's admission counters off /v1/stats.
func nodeAdmission(t *testing.T, node *httptest.Server) server.AdmissionStats {
	t.Helper()
	resp, err := http.Get(node.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Admission
}

// TestCoordinatorStreamStalledClientFreesShards is the coordinator twin
// of the server's TestStreamStalledClientFreesSlot: a client that stops
// reading its socket without closing it must not pin the shard streams
// the coordinator fanned out to — and with them each node's snapshot
// and admission slot. The request context never fires (the conn stays
// open), so only the per-line write deadline (Config.Timeout) ends the
// handler and closes the shard streams.
func TestCoordinatorStreamStalledClientFreesShards(t *testing.T) {
	tc, front := newBigCluster(t, 2, 400_000, time.Second)

	conn, err := net.Dial("tcp", front.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"sql":"SELECT k, v, tag FROM big"}`
	fmt.Fprintf(conn, "POST /v1/query?stream=1 HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body)
	// Read just the response head, then stall: never read again, never
	// close. Writes back up through the coordinator into every node.
	if _, err := conn.Read(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}

	// Every shard's statement must have started and then let go of its
	// slot within Config.Timeout (+margin). Without the write deadline
	// each stays pinned until the node's own 30s write deadline.
	end := time.Now().Add(10 * time.Second)
	for si := range tc.srvs {
		for {
			st := nodeAdmission(t, tc.srvs[si][0])
			if st.Admitted >= 1 && st.InFlight == 0 {
				break
			}
			if time.Now().After(end) {
				t.Fatalf("shard %d stream still pinned by the stalled client: %+v", si, st)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// streamLines posts a streaming query and returns the raw NDJSON lines.
func streamLines(t *testing.T, baseURL, reqBody string) [][]byte {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/query?stream=1", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("%s: status %d, content type %q", baseURL, resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: read stream: %v", baseURL, err)
	}
	return lines
}

// TestCoordinatorStreamMatchesNodeBytes: for the same single-shard
// result a coordinator and a node put the same bytes on the wire —
// header and every batch line identical, the done trailer identical
// but for its elapsed time, and a mid-stream failure reported by the
// same typed error trailer.
func TestCoordinatorStreamMatchesNodeBytes(t *testing.T) {
	tc, front := newBigCluster(t, 1, 400_000, 0)
	node := tc.srvs[0][0].URL

	const q = `{"sql":"SELECT k, v, tag FROM big WHERE k < 5000"}`
	fromNode, fromCoord := streamLines(t, node, q), streamLines(t, front.URL, q)
	if len(fromNode) < 4 || len(fromCoord) != len(fromNode) {
		t.Fatalf("node sent %d lines, coordinator %d (want equal, ≥ header + 2 batches + trailer)",
			len(fromNode), len(fromCoord))
	}
	last := len(fromNode) - 1
	for i := 0; i < last; i++ {
		if !bytes.Equal(fromNode[i], fromCoord[i]) {
			t.Fatalf("line %d differs:\nnode:        %.200s\ncoordinator: %.200s", i, fromNode[i], fromCoord[i])
		}
	}
	var nt, ct map[string]any
	if err := json.Unmarshal(fromNode[last], &nt); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fromCoord[last], &ct); err != nil {
		t.Fatal(err)
	}
	if nt["done"] != true || nt["rows_total"] != float64(5000) {
		t.Fatalf("node trailer %s", fromNode[last])
	}
	nt["elapsed_ms"], ct["elapsed_ms"] = 0, 0
	if fmt.Sprint(nt) != fmt.Sprint(ct) {
		t.Fatalf("trailers differ:\nnode:        %s\ncoordinator: %s", fromNode[last], fromCoord[last])
	}

	// A deadline that expires mid-stream (the full table is hundreds of
	// milliseconds of encoding) ends both streams with the same line.
	const slow = `{"sql":"SELECT k, v, tag FROM big", "timeout_ms": 60}`
	fromNode, fromCoord = streamLines(t, node, slow), streamLines(t, front.URL, slow)
	nodeEnd, coordEnd := fromNode[len(fromNode)-1], fromCoord[len(fromCoord)-1]
	var trailer server.StreamErrorTrailer
	if err := json.Unmarshal(nodeEnd, &trailer); err != nil || trailer.Kind != "timeout" || trailer.Error.Code != "timeout" {
		t.Fatalf("node did not end in a timeout trailer: %s", nodeEnd)
	}
	if !bytes.Equal(nodeEnd, coordEnd) {
		t.Fatalf("error trailers differ:\nnode:        %s\ncoordinator: %s", nodeEnd, coordEnd)
	}
}

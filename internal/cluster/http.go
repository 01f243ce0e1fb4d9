package cluster

// The coordinator's HTTP face. It speaks the same /v1/query wire as a
// single vwserve node — including ?stream=1 NDJSON with the typed
// error trailer — by calling the node's own response writers
// (internal/server/wire.go), so clients (and the TPC-H differential
// harness) can point at a coordinator or a node interchangeably.
// /v1/cluster adds the distributed observability a node does not have:
// topology, replica health, and per-shard query/bytes/failover counters.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"vectorwise/internal/server"
	"vectorwise/internal/sql"
)

// Handler returns the coordinator's HTTP API.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", co.handleQuery)
	mux.HandleFunc("POST /v1/load", co.handleLoad)
	mux.HandleFunc("GET /v1/cluster", co.handleCluster)
	mux.HandleFunc("GET /v1/stats", co.handleCluster)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func (co *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req server.QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if req.SQL == "" || req.Stmt != "" || req.Session != "" || len(req.Params) > 0 || req.Explain || req.Partial {
		server.WriteError(w, http.StatusBadRequest, "bad_request",
			`the coordinator supports plain "sql" statements only (no sessions, prepared statements, params, explain or partial)`)
		return
	}
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	st, err := sql.Parse(req.SQL)
	if err != nil {
		body := server.ErrorBody{Code: "bad_request", Message: err.Error(), Position: server.PositionOf(err)}
		server.WriteJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: body})
		return
	}
	var isSelect bool
	switch st.AST.(type) {
	case *sql.SelectStmt, *sql.SetOpStmt:
		isSelect = true
	}
	start := time.Now()
	if !isSelect {
		n, err := co.Exec(ctx, req.SQL)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		server.WriteJSON(w, http.StatusOK, server.QueryResponse{
			RowsAffected: &n,
			ElapsedMs:    float64(time.Since(start)) / float64(time.Millisecond),
		})
		return
	}
	res, err := co.Query(ctx, req.SQL)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	defer res.Close()
	if r.URL.Query().Get("stream") == "1" {
		server.StreamResult(w, res.Columns(), res.NextBatch, co.c.timeout, start)
		return
	}
	rows, err := server.CollectEncoded(res.Columns(), res.NextBatch)
	if err != nil {
		server.WriteEngineError(w, err)
		return
	}
	server.WriteRows(w, res.Columns(), rows, start)
}

// writeQueryError answers a failed statement the way a node would: the
// coordinator's own shape refusals are the client's fault (400), and
// every other failure takes the node's classification.
func writeQueryError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrNotDistributable) {
		server.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	server.WriteEngineError(w, err)
}

func (co *Coordinator) handleLoad(w http.ResponseWriter, r *http.Request) {
	table := r.URL.Query().Get("table")
	if table == "" {
		server.WriteError(w, http.StatusBadRequest, "bad_request", `missing "table" query parameter`)
		return
	}
	header, _ := strconv.ParseBool(r.URL.Query().Get("header"))
	opts := LoadOptions{
		Header: header,
		Null:   r.URL.Query().Get("null"),
	}
	n, err := co.LoadCSV(r.Context(), table, http.MaxBytesReader(w, r.Body, 1<<30), opts)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	server.WriteJSON(w, http.StatusOK, server.LoadResponse{RowsLoaded: n})
}

// ShardInfo is one shard's slice of the /v1/cluster response.
type ShardInfo struct {
	Replicas []ReplicaHealth    `json:"replicas"`
	Stats    ShardStatsSnapshot `json:"stats"`
}

// ClusterResponse is the /v1/cluster (and coordinator /v1/stats) body.
type ClusterResponse struct {
	Shards  []ShardInfo          `json:"shards"`
	Tables  map[string]Placement `json:"tables"`
	Queries int64                `json:"queries"`
	Uptime  string               `json:"uptime"`
}

func (co *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	resp := ClusterResponse{
		Tables:  co.m.Tables,
		Queries: co.queries.Load(),
		Uptime:  fmt.Sprintf("%dms", time.Since(co.started).Milliseconds()),
	}
	for si, reps := range co.m.Shards {
		resp.Shards = append(resp.Shards, ShardInfo{
			Replicas: co.health.snapshot(reps),
			Stats:    co.stats[si].Snapshot(),
		})
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

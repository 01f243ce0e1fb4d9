// Package server turns the embedded vectorwise engine into a
// multi-user network service: an HTTP + JSON query endpoint with
// session management, per-request timeouts, admission control capping
// concurrent statements, and structured error responses. It is the
// serving layer the Vectorwise product grew around its X100 core — the
// same shape Vertica later gave C-Store — scaled down to one process.
//
// Endpoints (all JSON):
//
//	POST   /v1/query          {"sql"|"stmt": "...", "params": [...], "explain": ?,
//	                           "session": "?", "timeout_ms": ?}
//	POST   /v1/query?stream=1 SELECT only: chunked NDJSON — a columns
//	                          header line, one {"rows":[...]} line per
//	                          vector batch, and a final trailer line
//	                          ({"done":true,...} or {"error":{...}})
//	POST   /v1/prepare        {"session": "...", "name": "...", "sql": "..."}
//	DELETE /v1/prepare/{name} ?session=...
//	POST   /v1/session        → {"id": "...", "created": "..."}
//	DELETE /v1/session/{id}
//	GET    /v1/stats          admission + session + plan-cache counters
//	GET    /v1/healthz
//
// The bodies, the NDJSON framing, the error classification and the batch
// codec are wire.go, which the cluster coordinator (internal/cluster)
// answers and reads through as well.
//
// SELECTs execute as streaming cursors bound to the request context:
// when the deadline passes or the client disconnects, the engine stops
// the statement at the next vector boundary and the admission slot
// frees immediately — an abandoned request cannot pin capacity for the
// statement's natural duration.
//
// Repeated statements should carry placeholders (`?` / `$N`) and
// params: the engine's plan cache then serves every request after the
// first without re-entering the lexer, parser, or rewriter — either
// transparently (same SQL text) or explicitly via per-session named
// prepared statements ("prepare once, execute by name").
//
// Concurrency: SELECTs run concurrently inside the engine, each
// against its own pinned epoch snapshot of the committed state — a
// slow or streaming reader never blocks DDL/DML, which serializes
// under the engine's write lock and publishes new state without
// waiting for open cursors. The admission controller bounds how many
// statements of any kind execute at once, with a bounded waiting room
// beyond the cap and 429 past that, so overload degrades by
// queueing-then-shedding rather than by collapse.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/catalog"
	"vectorwise/internal/sql"
)

// Config tunes a Server. Zero values pick sensible defaults.
type Config struct {
	// MaxConcurrent caps statements executing simultaneously. The
	// default accounts for intra-query parallelism: each SELECT may
	// fan out to DB.Parallelism workers, so the cap defaults to
	// max(2, 2×GOMAXPROCS/Parallelism) to bound total runnable
	// goroutines near 2×GOMAXPROCS. When setting it explicitly, tune
	// it together with DB.Parallelism.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot beyond the cap
	// (default 4×MaxConcurrent; <0 disables the waiting room so the
	// cap rejects immediately). Requests past cap+queue get 429.
	MaxQueue int
	// QueryTimeout is the default per-request execution deadline
	// (default 30s). Clients may shorten it per request via
	// timeout_ms; they cannot exceed it.
	QueryTimeout time.Duration
	// SessionTTL expires sessions idle longer than this (default 15m;
	// <0 disables expiry).
	SessionTTL time.Duration
	// Name labels this node in /v1/health and /v1/stats — cluster
	// deployments set it to the node's shard/replica identity so
	// coordinator health checks and humans can tell nodes apart.
	Name string
}

func (c Config) withDefaults(parallelism int) Config {
	if c.MaxConcurrent <= 0 {
		if parallelism < 1 {
			parallelism = 1
		}
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0) / parallelism
		if c.MaxConcurrent < 2 {
			c.MaxConcurrent = 2
		}
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	return c
}

// Server serves SQL over HTTP against one vectorwise.DB.
type Server struct {
	db       *vectorwise.DB
	cfg      Config
	adm      *admission
	sessions *sessionTable
	mux      *http.ServeMux
	started  time.Time
	stop     chan struct{}
	// draining is set by BeginDrain: new statements are refused with
	// 503 while in-flight streaming cursors finish — the graceful
	// shutdown handshake a cluster coordinator observes via /v1/health
	// (it fails this node over instead of queueing behind the drain).
	draining atomic.Bool
}

// New builds a Server around db. Close it to stop the session reaper;
// closing the Server does not close the DB. New reads db.Parallelism
// to size the default admission cap, so set it before calling New.
func New(db *vectorwise.DB, cfg Config) *Server {
	cfg = cfg.withDefaults(db.Parallelism)
	s := &Server{
		db:       db,
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		sessions: newSessionTable(cfg.SessionTTL),
		mux:      http.NewServeMux(),
		started:  time.Now(),
		stop:     make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/load", s.handleLoad)
	s.mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("DELETE /v1/prepare/{name}", s.handlePrepareDelete)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	go s.reap()
	return s
}

// Handler returns the HTTP handler (mount it on an http.Server or an
// httptest.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the background session reaper.
func (s *Server) Close() { close(s.stop) }

// BeginDrain puts the server into draining mode: every subsequent
// statement (query, load, prepare) is refused with 503/"draining",
// while statements already executing — including open streaming
// cursors — run to completion. Callers then use http.Server.Shutdown,
// which waits for those in-flight responses, so a drained process never
// truncates a stream mid-flight. /v1/health reports "draining" so
// cluster coordinators stop routing here immediately.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// refuseDraining writes the 503 drain response if the server is
// draining, reporting whether it did.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	WriteError(w, http.StatusServiceUnavailable, "draining",
		"server is draining before shutdown; retry on another replica")
	return true
}

// admit takes an execution slot for a request, or writes the refusal:
// 429 when the waiting room is full, 504 when ctx ends first. It reports
// whether the caller holds a slot (and must release it).
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) bool {
	err := s.adm.acquire(ctx)
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrOverloaded):
		WriteError(w, http.StatusTooManyRequests, "overloaded", err.Error())
	default:
		WriteError(w, http.StatusGatewayTimeout, "timeout", "timed out waiting for an execution slot")
	}
	return false
}

// reap expires idle sessions until Close.
func (s *Server) reap() {
	if s.cfg.SessionTTL <= 0 {
		return
	}
	tick := time.NewTicker(s.cfg.SessionTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-tick.C:
			s.sessions.sweep(now)
		}
	}
}

// maxBodyBytes bounds /v1/query request bodies.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body with numbers preserved as
// json.Number (so int64 parameters survive without float rounding),
// mapping size and syntax failures to structured errors. It reports
// whether decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		WriteError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return false
	}
	return true
}

// convertParams unboxes JSON parameter values for the engine:
// json.Number becomes int64 when integral (float64 otherwise), and
// strings, bools and nulls pass through.
func convertParams(in []any) ([]any, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]any, len(in))
	for i, p := range in {
		switch v := p.(type) {
		case json.Number:
			if n, err := v.Int64(); err == nil {
				out[i] = n
				continue
			}
			f, err := v.Float64()
			if err != nil {
				return nil, fmt.Errorf("param %d: bad number %q", i+1, v.String())
			}
			out[i] = f
		case string, bool, nil:
			out[i] = v
		default:
			return nil, fmt.Errorf("param %d: unsupported JSON value %T (arrays/objects cannot bind)", i+1, p)
		}
	}
	return out, nil
}

// writePrepareError maps a Prepare failure: planner references to
// unknown tables are 404, anything else (syntax, typing, transaction
// control) is the client's fault.
func writePrepareError(w http.ResponseWriter, err error) {
	if errors.Is(err, catalog.ErrUnknownTable) {
		WriteError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if (req.SQL == "") == (req.Stmt == "") {
		WriteError(w, http.StatusBadRequest, "bad_request", `provide exactly one of "sql" or "stmt"`)
		return
	}
	if req.Partial && (req.Stmt != "" || len(req.Params) > 0 || req.Explain) {
		WriteError(w, http.StatusBadRequest, "bad_request", `"partial" takes a plain "sql" SELECT (no stmt, params or explain)`)
		return
	}
	var sess *Session
	if req.Session != "" {
		var err error
		if sess, err = s.sessions.get(req.Session); err != nil {
			WriteError(w, http.StatusNotFound, "not_found", err.Error())
			return
		}
		sess.touch(time.Now())
	}

	// Resolve the statement up front: syntax errors are the client's
	// fault (400) and must not consume an execution slot. Session
	// statements and warm texts resolve straight from the plan cache
	// with no parsing; a cold text gets a parse-only validation here,
	// and its planning runs after admission — so the controller's cap
	// bounds planner work exactly like execution work.
	var stmt *vectorwise.Stmt // nil for a cold text
	var isSelect bool
	var numParams int
	if req.Stmt != "" {
		if sess == nil {
			WriteError(w, http.StatusBadRequest, "bad_request", `executing by "stmt" requires a "session"`)
			return
		}
		st, ok := sess.stmt(req.Stmt)
		if !ok {
			WriteError(w, http.StatusNotFound, "not_found",
				fmt.Sprintf("no prepared statement %q on this session", req.Stmt))
			return
		}
		stmt, isSelect, numParams = st, st.IsSelect(), st.NumParams()
	} else if st, ok := s.db.LookupPrepared(req.SQL); ok && !req.Partial {
		stmt, isSelect, numParams = st, st.IsSelect(), st.NumParams()
	} else {
		// Deliberate trade-off: a cold text is parsed here for the
		// 400-vs-slot classification and parsed again by the engine on
		// execution. Folding the two would mean garbage statements
		// consume admission slots; parse is the cheap half of the
		// front end, and warm texts skip both parses entirely.
		st, err := sql.Parse(req.SQL)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: ErrorBody{
				Code: "bad_request", Message: err.Error(), Position: PositionOf(err),
			}})
			return
		}
		switch st.AST.(type) {
		case *sql.SelectStmt, *sql.SetOpStmt:
			isSelect = true
		}
		numParams = st.NumParams
	}
	if (req.Explain || req.Partial) && !isSelect {
		WriteError(w, http.StatusBadRequest, "bad_request", "explain and partial support SELECT only")
		return
	}
	stream := r.URL.Query().Get("stream") == "1"
	if stream && (!isSelect || req.Explain) {
		WriteError(w, http.StatusBadRequest, "bad_request", "stream=1 supports SELECT only")
		return
	}
	params, err := convertParams(req.Params)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	// Explain ignores params (the plan renders unbound $N slots); for
	// execution the binding arity must match.
	if !req.Explain && len(params) != numParams {
		WriteError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("statement takes %d parameters, got %d", numParams, len(params)))
		return
	}

	timeout := s.cfg.QueryTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	if !s.admit(ctx, w) {
		return
	}

	start := time.Now()

	// Streaming runs on the handler goroutine: the cursor pulls batches
	// directly onto the wire, and the request context cancels the
	// statement between batches if the client goes away. The admission
	// slot is held for the life of the cursor (streaming is engine load:
	// the cursor pins an epoch snapshot and drives the operator tree);
	// StreamResult's per-line write deadline is what frees it when a
	// client stops reading without closing.
	if stream {
		defer s.adm.release()
		rows, err := s.openRows(ctx, stmt, req, params)
		if err != nil {
			// Nothing sent yet: a plain HTTP error is still possible.
			WriteEngineError(w, err)
			return
		}
		defer rows.Close()
		StreamResult(w, rows.Columns(), rows.NextCodedBatch, s.cfg.QueryTimeout, start)
		return
	}

	// Execute on a worker goroutine so the handler can honor the
	// deadline even for statements that outlive it. SELECTs run as
	// context-bound cursors, so on timeout/disconnect the engine stops
	// at the next vector boundary and the worker releases its admission
	// slot almost immediately. DDL/DML commits are not interruptible
	// mid-statement; only there can the slot outlive the response, and
	// the cap stays truthful about engine load either way.
	type outcome struct {
		resp QueryResponse
		// rows, for an executed SELECT, are CollectEncoded's bytes.
		rows     []byte
		selected bool
		err      error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		// Release the slot before signalling completion so a client
		// that saw its response (or anyone reading /v1/stats after it)
		// observes the slot as free — the release happens-before the
		// HTTP reply.
		func() {
			defer s.adm.release()
			// Explain plans (on a cold text) but does not execute; it
			// runs inside the admission slot so a burst of distinct
			// explain texts is bounded like any other planner work.
			if req.Explain {
				sqlText := req.SQL
				if stmt != nil {
					sqlText = stmt.SQL()
				}
				plan, err := s.db.Explain(sqlText)
				if err != nil {
					o.err = err
					return
				}
				o.resp.Plan = plan
				return
			}
			if isSelect {
				rows, err := s.openRows(ctx, stmt, req, params)
				if err != nil {
					o.err = err
					return
				}
				defer rows.Close()
				enc, err := CollectEncoded(rows.Columns(), rows.NextCodedBatch)
				if err != nil {
					o.err = err
					return
				}
				o.resp.Columns = rows.Columns()
				o.rows, o.selected = enc, true
			} else {
				var n int64
				var err error
				if stmt != nil {
					n, err = stmt.Exec(params...)
				} else {
					n, err = s.db.ExecArgs(req.SQL, params...)
				}
				if err != nil {
					o.err = err
					return
				}
				o.resp.RowsAffected = &n
			}
		}()
		done <- o
	}()

	select {
	case o := <-done:
		if o.err != nil {
			WriteEngineError(w, o.err)
			return
		}
		if o.selected {
			WriteRows(w, o.resp.Columns, o.rows, start)
			return
		}
		o.resp.ElapsedMs = elapsedMs(start)
		WriteJSON(w, http.StatusOK, o.resp)
	case <-ctx.Done():
		WriteError(w, http.StatusGatewayTimeout, "timeout",
			fmt.Sprintf("statement exceeded %v", timeout))
	}
}

// openRows opens a streaming cursor for a SELECT: the node's half of it
// for a partial request, otherwise via the session's prepared statement
// when one was named or the raw SQL text.
func (s *Server) openRows(ctx context.Context, stmt *vectorwise.Stmt, req QueryRequest, params []any) (*vectorwise.Rows, error) {
	if req.Partial {
		return s.db.QueryPartial(ctx, req.SQL)
	}
	if stmt != nil {
		return stmt.QueryContext(ctx, params...)
	}
	return s.db.QueryContext(ctx, req.SQL, params...)
}

// maxSessionStmts bounds named prepared statements per session so a
// client cannot grow server memory without bound.
const maxSessionStmts = 64

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req PrepareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Session == "" || req.Name == "" || req.SQL == "" {
		WriteError(w, http.StatusBadRequest, "bad_request", `"session", "name" and "sql" are all required`)
		return
	}
	sess, err := s.sessions.get(req.Session)
	if err != nil {
		WriteError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	sess.touch(time.Now())
	// Prepare plans the statement, so it takes an admission slot like
	// any other planner work — a flood of distinct prepares sheds with
	// 429 instead of running unbounded concurrent planning.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()
	if !s.admit(ctx, w) {
		return
	}
	stmt, err := s.db.Prepare(req.SQL)
	s.adm.release()
	if err != nil {
		writePrepareError(w, err)
		return
	}
	if !sess.setStmt(req.Name, stmt, maxSessionStmts) {
		WriteError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("session holds %d prepared statements; deallocate one first", maxSessionStmts))
		return
	}
	WriteJSON(w, http.StatusOK, PrepareResponse{
		Name:      req.Name,
		NumParams: stmt.NumParams(),
		Select:    stmt.IsSelect(),
	})
}

func (s *Server) handlePrepareDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sid := r.URL.Query().Get("session")
	if sid == "" {
		WriteError(w, http.StatusBadRequest, "bad_request", `missing "session" query parameter`)
		return
	}
	sess, err := s.sessions.get(sid)
	if err != nil {
		WriteError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	sess.touch(time.Now())
	if !sess.removeStmt(name) {
		WriteError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no prepared statement %q on this session", name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	sess := s.sessions.create(time.Now())
	WriteJSON(w, http.StatusOK, sess)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		WriteError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("unknown or expired session %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, StatsResponse{
		Admission: s.adm.snapshot(),
		PlanCache: s.db.PlanCacheStats(),
		Scan:      s.db.ScanStats(),
		Hash:      s.db.HashStats(),
		DataEpoch: s.db.Epoch(),
		Mover:     s.db.MoverStats(),
		Sessions:  s.sessions.count(),
		UptimeMs:  time.Since(s.started).Milliseconds(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleHealth serves the liveness probe. It takes no admission slot
// and no DB lock beyond the atomic epoch read, so it stays responsive
// under full query load — exactly what a failover health check needs.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	WriteJSON(w, http.StatusOK, HealthResponse{
		Status:    status,
		Name:      s.cfg.Name,
		DataEpoch: s.db.Epoch(),
		UptimeMs:  time.Since(s.started).Milliseconds(),
	})
}

// maxLoadBytes bounds /v1/load request bodies (bulk CSV is allowed to
// be much larger than a statement body).
const maxLoadBytes = 1 << 30

// handleLoad bulk-loads CSV from the request body into the table named
// by the ?table= query parameter via DB.CopyFrom — the per-node half of
// the cluster's sharded ingest fan-out. Options mirror CopyOptions:
// ?header=1 (or header=true) skips a header record, ?null=TOK reads TOK
// as NULL.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	table := r.URL.Query().Get("table")
	if table == "" {
		WriteError(w, http.StatusBadRequest, "bad_request", `missing "table" query parameter`)
		return
	}
	opts := vectorwise.CopyOptions{
		Header: boolParam(r, "header"),
		Null:   r.URL.Query().Get("null"),
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()
	if !s.admit(ctx, w) {
		return
	}
	defer s.adm.release()
	start := time.Now()
	n, err := s.db.CopyFrom(table, http.MaxBytesReader(w, r.Body, maxLoadBytes), opts)
	if err != nil {
		if errors.Is(err, catalog.ErrUnknownTable) {
			WriteError(w, http.StatusNotFound, "not_found", err.Error())
			return
		}
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, LoadResponse{
		RowsLoaded: n,
		ElapsedMs:  float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// boolParam reads a boolean query parameter, accepting any form
// strconv.ParseBool does ("1", "true", "TRUE", ...). Absent or
// unparseable values read as false.
func boolParam(r *http.Request, name string) bool {
	b, err := strconv.ParseBool(r.URL.Query().Get(name))
	return err == nil && b
}

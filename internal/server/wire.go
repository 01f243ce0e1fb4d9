package server

// The wire contract, whole: every request and response body of the
// /v1 endpoints, the NDJSON stream framing, the error classification,
// and both halves of the batch codec. A node (Server) and the cluster
// coordinator answer /v1/query through these same functions, and the
// coordinator's client reads node streams back with DecodeBatch, so
// the two faces cannot drift apart.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/plancache"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// QueryRequest is the /v1/query request body. Exactly one of SQL or
// Stmt must be set.
type QueryRequest struct {
	SQL string `json:"sql,omitempty"`
	// Stmt names a prepared statement registered on the session via
	// POST /v1/prepare; requires Session.
	Stmt string `json:"stmt,omitempty"`
	// Params bind the statement's `?` / `$N` placeholders in order
	// (Params[0] binds $1).
	Params []any `json:"params,omitempty"`
	// Explain returns the optimized plan text instead of executing
	// (SELECT only); unbound placeholders render as $N.
	Explain bool `json:"explain,omitempty"`
	// Partial asks for the node's half of a distributed SELECT — the
	// cluster coordinator's inter-node request. The node plans SQL as
	// usual, cuts the plan with the same rule the coordinator applies
	// (rewriter.Split) and answers with the rows of the below half:
	// partial aggregates (group columns, then SUM/COUNT/MIN/MAX states;
	// an ungrouped aggregate over no rows sends no row at all), this
	// node's top-N for ORDER BY … LIMIT, or plain rows. The columns are
	// below's, not the statement's. Plain "sql" SELECTs only: no stmt,
	// params or explain.
	Partial bool `json:"partial,omitempty"`
	// Session is an optional session id from POST /v1/session.
	Session string `json:"session,omitempty"`
	// TimeoutMs optionally shortens the server's QueryTimeout for this
	// request.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse is the /v1/query success body.
type QueryResponse struct {
	// Columns and Rows are set for SELECT.
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
	// RowsAffected is set for DDL/DML.
	RowsAffected *int64 `json:"rows_affected,omitempty"`
	// Plan is set for explain requests.
	Plan      string  `json:"plan,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// PrepareRequest is the /v1/prepare request body.
type PrepareRequest struct {
	// Session is the owning session id (required: prepared statements
	// are per-session state).
	Session string `json:"session"`
	// Name is the handle later requests execute via "stmt".
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

// PrepareResponse is the /v1/prepare success body.
type PrepareResponse struct {
	Name string `json:"name"`
	// NumParams is how many placeholder values the statement takes.
	NumParams int `json:"num_params"`
	// Select reports whether the statement is a SELECT.
	Select bool `json:"select"`
}

// ErrorBody is the structured error payload.
type ErrorBody struct {
	// Code is a stable machine-readable identifier: bad_request,
	// too_large, overloaded, timeout, draining, not_found, internal.
	Code    string `json:"code"`
	Message string `json:"message"`
	// Position locates a SQL parse error in the statement text; absent
	// for every other error class.
	Position *ErrorPosition `json:"position,omitempty"`
}

// ErrorPosition pinpoints a parse error: byte offset into the
// statement, 1-based line and column, and the offending token text.
type ErrorPosition struct {
	Offset int    `json:"offset"`
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Near   string `json:"near,omitempty"`
}

// PositionOf extracts the statement position from a parse error, or
// nil if err carries none.
func PositionOf(err error) *ErrorPosition {
	var pe *sql.ParseError
	if errors.As(err, &pe) {
		return &ErrorPosition{Offset: pe.Offset, Line: pe.Line, Col: pe.Col, Near: pe.Near}
	}
	return nil
}

// ErrorResponse wraps every non-2xx body.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// StatsResponse is the /v1/stats body.
type StatsResponse struct {
	Admission AdmissionStats `json:"admission"`
	// PlanCache exposes the engine's statement-cache counters; a
	// healthy parametrized workload shows hits ≫ misses.
	PlanCache plancache.Stats `json:"plan_cache"`
	// Scan exposes cumulative row-group counters: groups decompressed
	// vs groups skipped by min/max data skipping, and the rows of
	// decompressed groups a search of a sorted chunk skipped. A
	// selective clustered workload shows groups_pruned and rows_skipped
	// climbing with traffic.
	Scan storage.ScanStatsSnapshot `json:"scan"`
	// Hash exposes cumulative hash-table counters from agg/join
	// operators: tables built, distinct keys held, directory resizes,
	// and the longest linear-probe distance observed. Probe_max
	// climbing far past single digits signals pathological clustering.
	Hash core.HashStatsTotalsSnapshot `json:"hash"`
	// DataEpoch is the engine's committed-state version: it advances on
	// every DML commit, tuple-mover fold or stable-image swap,
	// checkpoint and bulk load. A frozen epoch under write traffic
	// means commits are not landing.
	DataEpoch uint64 `json:"data_epoch"`
	// Mover exposes the background tuple mover's cumulative counters
	// (passes, folds, stable rebuilds, abandoned installs).
	Mover    vectorwise.MoverStats `json:"mover"`
	Sessions int                   `json:"sessions"`
	UptimeMs int64                 `json:"uptime_ms"`
}

// HealthResponse is the /v1/health body — the cheap liveness probe a
// cluster coordinator polls per replica. Status is "ok" or "draining";
// DataEpoch lets the prober detect replicas whose committed state has
// stopped advancing relative to their peers.
type HealthResponse struct {
	Status    string `json:"status"`
	Name      string `json:"name,omitempty"`
	DataEpoch uint64 `json:"data_epoch"`
	UptimeMs  int64  `json:"uptime_ms"`
}

// LoadResponse is the /v1/load success body.
type LoadResponse struct {
	RowsLoaded int64   `json:"rows_loaded"`
	ElapsedMs  float64 `json:"elapsed_ms"`
}

// WriteJSON writes body as the JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// WriteError writes a structured ErrorResponse.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: ErrorBody{Code: code, Message: msg}})
}

// NodeError is a node's error answer as the coordinator got it: its
// status and body. The coordinator answers with the node's status and
// code, so a statement a node refuses as the client's fault is the
// client's fault at the coordinator too.
type NodeError struct {
	Status int
	Body   ErrorBody
}

func (e *NodeError) Error() string {
	return fmt.Sprintf("node returned %d: %s (%s)", e.Status, e.Body.Message, e.Body.Code)
}

// engineErrorBody maps an execution error onto a status and structured
// body (shared by the JSON response path and the NDJSON trailer path,
// on a node and on the coordinator).
func engineErrorBody(err error) (int, ErrorBody) {
	var node *NodeError
	switch {
	case errors.As(err, &node):
		return node.Status, ErrorBody{Code: node.Body.Code, Message: err.Error(), Position: node.Body.Position}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The statement was canceled mid-flight by the request deadline
		// or a client disconnect.
		return http.StatusGatewayTimeout, ErrorBody{Code: "timeout", Message: "statement canceled: " + err.Error()}
	case errors.Is(err, catalog.ErrUnknownTable):
		return http.StatusNotFound, ErrorBody{Code: "not_found", Message: err.Error()}
	case errors.As(err, new(*NonFiniteError)), errors.As(err, new(*vtypes.NotNullError)), errors.As(err, new(*algebra.ParamError)):
		// Deterministic for the statement over this data: the client can
		// filter or cast the column, write a value or pass an argument
		// its slot takes, and every replica would fail alike.
		return http.StatusBadRequest, ErrorBody{Code: "bad_request", Message: err.Error()}
	case PositionOf(err) != nil:
		// A parse error surfacing from the engine (e.g. a statement that
		// bypassed the front-door classification) is the client's fault,
		// and it keeps its position.
		return http.StatusBadRequest, ErrorBody{Code: "bad_request", Message: err.Error(), Position: PositionOf(err)}
	default:
		return http.StatusInternalServerError, ErrorBody{Code: "internal", Message: err.Error()}
	}
}

// WriteEngineError maps an execution error onto a structured response.
func WriteEngineError(w http.ResponseWriter, err error) {
	status, body := engineErrorBody(err)
	WriteJSON(w, status, ErrorResponse{Error: body})
}

// StreamHeader is the first NDJSON line of a streamed query response.
type StreamHeader struct {
	Columns []string `json:"columns"`
}

// StreamBatch is one NDJSON line per vector batch of a streamed query.
type StreamBatch struct {
	Rows [][]any `json:"rows"`
}

// StreamTrailer is the final NDJSON line of a successful stream.
type StreamTrailer struct {
	Done      bool    `json:"done"`
	RowsTotal int64   `json:"rows_total"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// StreamErrorTrailer is the final NDJSON line of a failed stream. Kind
// types the failure so a consumer retrying against a replica (the
// cluster coordinator) can decide retry-vs-fail without parsing
// message text: a "query" failure is deterministic and will fail
// identically on every replica, while "timeout"/"canceled" reflect
// this request's lifecycle, not the statement.
type StreamErrorTrailer struct {
	Error ErrorBody `json:"error"`
	// Kind is "timeout" (request deadline), "canceled" (client
	// disconnect or server-side cancellation) or "query" (the statement
	// itself failed).
	Kind string `json:"error_kind"`
}

// errorKind classifies a streaming failure for StreamErrorTrailer.
func errorKind(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "query"
	}
}

// CollectEncoded drains next into the JSON bytes of a result's "rows"
// array, encoding straight from the engine's batches (appendRows): the
// bytes encoding/json writes for the EncodeBatch rows, or nil when there
// are no rows (QueryResponse omits an empty "rows"). cols names the
// result columns for a NonFiniteError. next returns (nil, nil) at end of
// stream; the caller closes its cursor.
func CollectEncoded(cols []string, next func() (*vector.Batch, error)) ([]byte, error) {
	var out []byte
	for {
		b, err := next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if out, err = appendRowElems(out, b, cols); err != nil {
			return nil, err
		}
	}
	if out == nil {
		return nil, nil
	}
	out[0] = '['
	return append(out, ']'), nil
}

// WriteRows writes a SELECT's /v1/query success body: QueryResponse's
// shape with rows as CollectEncoded's bytes, byte for byte what
// WriteJSON(w, 200, QueryResponse{Columns: cols, Rows: …, ElapsedMs: …})
// writes for the same rows.
func WriteRows(w http.ResponseWriter, cols []string, rows []byte, start time.Time) {
	head := []byte{'{'}
	if len(cols) > 0 {
		names, _ := json.Marshal(cols) // a []string always marshals
		head = append(append(append(head, `"columns":`...), names...), ',')
	}
	var tail []byte
	if len(rows) > 0 {
		head = append(head, `"rows":`...)
		tail = append(tail, ',')
	}
	tail = append(appendFloat(append(tail, `"elapsed_ms":`...), elapsedMs(start)), '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(head)
	_, _ = w.Write(rows)
	_, _ = w.Write(tail)
}

// elapsedMs is the wall time since start in (fractional) milliseconds.
func elapsedMs(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// StreamResult writes a result as chunked NDJSON: a StreamHeader line,
// one StreamBatch line per vector batch next yields (flushed as
// produced), then a StreamTrailer — or a StreamErrorTrailer if next
// fails mid-stream (including cancellation, and a batch appendRows
// cannot encode): by then it is too late for an HTTP status, so the
// error travels in-band and the missing "done" marks truncation. next
// returns (nil, nil) at end of stream; the caller closes its cursor
// after StreamResult returns.
//
// A batch line is encoded by appendRows into one buffer that lives for
// this call; the header and trailers go through json.Encoder.
//
// Every connection write carries a deadline of writeTimeout: a client
// that stops reading its socket (without closing it) would otherwise
// block the handler inside the write forever — the request context is
// only checked between batches, not during a stalled conn write — and
// with it pin whatever the cursor holds (a node's snapshot and
// admission slot, a coordinator's open shard streams) indefinitely.
// With the deadline, a stalled write fails and StreamResult returns.
func StreamResult(w http.ResponseWriter, cols []string, next func() (*vector.Batch, error), writeTimeout time.Duration, start time.Time) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	writeLine := func(v any) error {
		// Best-effort deadline: unsupported writers fall back to the
		// unbounded write rather than failing the stream.
		_ = rc.SetWriteDeadline(time.Now().Add(writeTimeout))
		var err error
		if line, ok := v.([]byte); ok { // a batch line, already encoded
			_, err = w.Write(line)
		} else {
			err = enc.Encode(v)
		}
		if err != nil {
			return err
		}
		return rc.Flush()
	}
	fail := func(err error) {
		_, body := engineErrorBody(err)
		_ = writeLine(StreamErrorTrailer{Error: body, Kind: errorKind(err)})
	}
	if err := writeLine(StreamHeader{Columns: cols}); err != nil {
		return
	}
	var total int64
	var line []byte
	for {
		b, err := next()
		if err != nil {
			fail(err)
			return
		}
		if b == nil {
			break
		}
		line, err = appendRows(append(line[:0], `{"rows":`...), b, cols)
		if err != nil {
			fail(err)
			return
		}
		if err := writeLine(append(line, '}', '\n')); err != nil {
			// Conn dead or stalled past the deadline: stop pulling.
			return
		}
		total += int64(b.N)
	}
	_ = writeLine(StreamTrailer{
		Done:      true,
		RowsTotal: total,
		ElapsedMs: elapsedMs(start),
	})
}

// NonFiniteError is a NaN or infinite DOUBLE in a query result. JSON has
// no spelling for either (COPY parses them, and a SUM can overflow to
// +Inf), so the statement fails with this error, before a buffered
// response writes a byte or as a stream's "query" error trailer.
type NonFiniteError struct {
	// Column is the result column's name.
	Column string
	Value  float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("server: column %q holds %v, which JSON cannot represent", e.Column, e.Value)
}

// appendRows appends b's live rows as a JSON array of arrays: exactly
// the bytes encoding/json writes for EncodeBatch(b), without boxing a
// value. cols names b's columns, for a NonFiniteError.
func appendRows(dst []byte, b *vector.Batch, cols []string) ([]byte, error) {
	start := len(dst)
	dst, err := appendRowElems(dst, b, cols)
	if err != nil {
		return dst, err
	}
	if len(dst) == start {
		return append(dst, '[', ']'), nil
	}
	dst[start] = '['
	return append(dst, ']'), nil
}

// appendRowElems appends ",[v,…]" for each live row of b; the caller
// turns the first comma into the array's '['.
func appendRowElems(dst []byte, b *vector.Batch, cols []string) ([]byte, error) {
	for i := 0; i < b.N; i++ {
		ix := b.LiveIndex(i)
		dst = append(dst, ',', '[')
		for j, v := range b.Vecs {
			if j > 0 {
				dst = append(dst, ',')
			}
			if v.Nulls != nil && v.Nulls[ix] {
				dst = append(dst, "null"...)
				continue
			}
			switch v.Kind {
			case vtypes.KindI64:
				dst = strconv.AppendInt(dst, v.I64[ix], 10)
			case vtypes.KindF64:
				f := v.F64At(ix)
				if math.IsNaN(f) || math.IsInf(f, 0) {
					return dst, &NonFiniteError{Column: cols[j], Value: f}
				}
				dst = appendFloat(dst, f)
			case vtypes.KindStr:
				dst = appendString(dst, v.StrAt(ix))
			case vtypes.KindBool:
				dst = strconv.AppendBool(dst, v.B[ix])
			case vtypes.KindDate:
				dst = append(vtypes.AppendDate(append(dst, '"'), v.I64[ix]), '"')
			}
		}
		dst = append(dst, ']')
	}
	return dst, nil
}

// appendFloat writes a finite float64 the way encoding/json does: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 on, with a
// two-digit negative exponent shortened (e-09 → e-9).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// plainJSON marks the bytes a JSON string carries as they are:
// printable ASCII other than the quote, the backslash and the three
// characters encoding/json escapes for HTML (< > &).
var plainJSON = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// appendString writes s as a JSON string. Plain bytes are copied
// between quotes; any other string goes through json.Marshal, so HTML
// escaping, invalid UTF-8 and U+2028/U+2029 come out as encoding/json
// writes them by construction.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainJSON[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// EncodeBatch encodes one engine vector batch for JSON: NULL → null,
// BIGINT → number, DOUBLE → number, VARCHAR → string, BOOLEAN → bool,
// DATE → "YYYY-MM-DD". No result path calls it: appendRows writes these
// rows' JSON bytes directly. It stays as appendRows's test oracle
// (json.Marshal(EncodeBatch(b))) and for the benchmark's encode probe.
func EncodeBatch(b *vector.Batch) [][]any {
	out := make([][]any, b.N)
	for i := 0; i < b.N; i++ {
		ix := b.LiveIndex(i)
		enc := make([]any, len(b.Vecs))
		for j, v := range b.Vecs {
			enc[j] = encodeValue(v.Get(ix))
		}
		out[i] = enc
	}
	return out
}

func encodeValue(v vtypes.Value) any {
	if v.Null {
		return nil
	}
	switch v.Kind {
	case vtypes.KindI64:
		return v.I64
	case vtypes.KindF64:
		return v.F64
	case vtypes.KindStr:
		return v.Str
	case vtypes.KindBool:
		return v.B
	case vtypes.KindDate:
		return vtypes.FormatDate(v.I64)
	default:
		return v.String()
	}
}

// DecodeBatch is EncodeBatch's inverse: it converts one wire rows
// payload, read with json.Decoder.UseNumber so BIGINTs stay exact, into
// a freshly allocated dense vector batch of the given kinds.
func DecodeBatch(rows [][]any, kinds []vtypes.Kind) (*vector.Batch, error) {
	b := vector.NewBatchOfKinds(kinds, len(rows))
	for i, row := range rows {
		if len(row) != len(kinds) {
			return nil, fmt.Errorf("server: row arity %d, want %d", len(row), len(kinds))
		}
		for j, raw := range row {
			v := b.Vecs[j]
			if raw == nil {
				v.EnsureNulls()
				v.Nulls[i] = true
				continue
			}
			switch kinds[j] {
			case vtypes.KindI64:
				num, ok := raw.(json.Number)
				if !ok {
					return nil, decodeErr(raw, "BIGINT")
				}
				n, err := num.Int64()
				if err != nil {
					return nil, err
				}
				v.I64[i] = n
			case vtypes.KindF64:
				num, ok := raw.(json.Number)
				if !ok {
					return nil, decodeErr(raw, "DOUBLE")
				}
				f, err := num.Float64()
				if err != nil {
					return nil, err
				}
				v.F64[i] = f
			case vtypes.KindDate:
				s, ok := raw.(string)
				if !ok {
					return nil, decodeErr(raw, "DATE")
				}
				d, err := vtypes.ParseDate(s)
				if err != nil {
					return nil, err
				}
				v.I64[i] = d
			case vtypes.KindStr:
				s, ok := raw.(string)
				if !ok {
					return nil, decodeErr(raw, "VARCHAR")
				}
				v.Str[i] = s
			case vtypes.KindBool:
				bv, ok := raw.(bool)
				if !ok {
					return nil, decodeErr(raw, "BOOLEAN")
				}
				v.B[i] = bv
			default:
				return nil, fmt.Errorf("server: cannot decode kind %v", kinds[j])
			}
		}
	}
	b.SetDense(len(rows))
	return b, nil
}

func decodeErr(raw any, want string) error {
	return fmt.Errorf("server: wire value %T does not decode as %s", raw, want)
}

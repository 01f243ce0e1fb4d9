package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	vectorwise "vectorwise"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// newWireTestServer serves a table of every kind, NULLs in every column,
// with the codec's boundary values (the round trip's and the encoder-
// only edges) cycled through 2 500 rows, so results span several
// batches.
func newWireTestServer(t *testing.T) (*vectorwise.DB, *httptest.Server) {
	t.Helper()
	db := vectorwise.OpenMemory()
	if _, err := db.Exec(`CREATE TABLE w (i BIGINT NULL, f DOUBLE NULL, s VARCHAR NULL, b BOOLEAN NULL, d DATE NULL)`); err != nil {
		t.Fatal(err)
	}
	const n = 2500
	is, fs, ss, bs, ds := make([]int64, n), make([]float64, n), make([]string, n), make([]bool, n), make([]int64, n)
	nulls := make([][]bool, 5)
	for c := range nulls {
		nulls[c] = make([]bool, n)
	}
	floats := append(append([]float64(nil), wireFloats...), encodeFloats...)
	strs := append(append([]string(nil), wireStrings...), encodeStrings...)
	dates := append(append([]int64(nil), wireDates...), encodeDates...)
	for r := 0; r < n; r++ {
		is[r] = wireInts[r%len(wireInts)] + int64(r%3)
		fs[r] = floats[r%len(floats)]
		ss[r] = strs[r%len(strs)]
		bs[r] = r%3 == 0
		ds[r] = dates[r%len(dates)] + int64(r%2)
		for c := range nulls {
			nulls[c][r] = (r+c)%11 == 0
		}
	}
	if _, err := db.LoadBatch("w", []any{is, fs, ss, bs, ds}, nulls); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return db, ts
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":[^,}]*`)

// maskElapsed zeroes every elapsed_ms value, the one field whose bytes
// legitimately differ between two runs.
func maskElapsed(b []byte) string {
	return elapsedField.ReplaceAllString(string(b), `"elapsed_ms":0`)
}

// boxedBodies is the reference encoding: the buffered body and the NDJSON
// stream built from EncodeBatch's boxed rows through encoding/json, which
// is how both were written before the byte encoder.
func boxedBodies(t *testing.T, db *vectorwise.DB, sqlText string) (buffered, stream []byte) {
	t.Helper()
	rows, err := db.QueryContext(context.Background(), sqlText)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var sb bytes.Buffer
	enc := json.NewEncoder(&sb)
	_ = enc.Encode(StreamHeader{Columns: rows.Columns()})
	var all [][]any
	var total int64
	for {
		b, err := rows.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		_ = enc.Encode(StreamBatch{Rows: EncodeBatch(b)})
		all = append(all, EncodeBatch(b)...)
		total += int64(b.N)
	}
	_ = enc.Encode(StreamTrailer{Done: true, RowsTotal: total})
	var bb bytes.Buffer
	_ = json.NewEncoder(&bb).Encode(QueryResponse{Columns: rows.Columns(), Rows: all})
	return bb.Bytes(), sb.Bytes()
}

// rawPost returns a /v1/query response's status, content type and body.
func rawPost(t *testing.T, url string, req QueryRequest) (int, string, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), got
}

// TestWireBodiesMatchBoxedEncoding: whole HTTP bodies, buffered and
// NDJSON, are byte for byte what encoding/json wrote for the boxed rows,
// elapsed_ms aside — over every kind, NULLs, several batches, a
// selection vector (the WHERE), an aggregate and an empty result (whose
// buffered body omits "rows").
func TestWireBodiesMatchBoxedEncoding(t *testing.T) {
	db, ts := newWireTestServer(t)
	for _, q := range []string{
		`SELECT i, f, s, b, d FROM w`,
		`SELECT d, s, i FROM w WHERE i > 0 ORDER BY i, d, s`,
		`SELECT COUNT(*) AS n, SUM(i) AS si FROM w WHERE b = TRUE`,
		`SELECT s, f FROM w WHERE i > 9000000000000000000 AND i < 9000000000000000001`,
	} {
		wantBuf, wantStream := boxedBodies(t, db, q)
		code, ctype, got := rawPost(t, ts.URL+"/v1/query", QueryRequest{SQL: q})
		if code != http.StatusOK || ctype != "application/json" {
			t.Fatalf("%s: buffered %d %q", q, code, ctype)
		}
		if maskElapsed(got) != maskElapsed(wantBuf) {
			t.Fatalf("%s: buffered body\n got %.300s\nwant %.300s", q, got, wantBuf)
		}
		code, ctype, got = rawPost(t, ts.URL+"/v1/query?stream=1", QueryRequest{SQL: q})
		if code != http.StatusOK || ctype != "application/x-ndjson" {
			t.Fatalf("%s: stream %d %q", q, code, ctype)
		}
		if maskElapsed(got) != maskElapsed(wantStream) {
			t.Fatalf("%s: stream body\n got %.300s\nwant %.300s", q, got, wantStream)
		}
	}
}

// TestNonFiniteResultIsAQueryError: a NaN or ±Inf DOUBLE in a result —
// loaded, or a SUM overflowing — fails the statement with an error that
// names the column: a buffered query answers 400 before writing a byte
// of the 200, and a stream ends with a "query" error trailer instead of
// stopping without one.
func TestNonFiniteResultIsAQueryError(t *testing.T) {
	db := vectorwise.OpenMemory()
	if _, err := db.Exec(`CREATE TABLE nf (k BIGINT, f DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	ks := make([]int64, 3000)
	fs := make([]float64, 3000)
	for i := range ks {
		ks[i] = int64(i)
		fs[i] = 1.5e308
	}
	fs[2500] = math.NaN()
	if _, err := db.LoadBatch("nf", []any{ks, fs}, nil); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	for _, c := range []struct{ sql, col string }{
		{`SELECT k, f AS val FROM nf`, "val"},
		{`SELECT SUM(f) AS total FROM nf WHERE k < 2`, "total"},
	} {
		code, _, body := rawPost(t, ts.URL+"/v1/query", QueryRequest{SQL: c.sql})
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || code != http.StatusBadRequest ||
			er.Error.Code != "bad_request" || !strings.Contains(er.Error.Message, `"`+c.col+`"`) {
			t.Fatalf("%s: buffered %d %s, want 400 naming %q", c.sql, code, body, c.col)
		}

		code, lines := postStream(t, ts, QueryRequest{SQL: c.sql})
		if code != http.StatusOK || len(lines) < 2 {
			t.Fatalf("%s: stream %d with %d lines", c.sql, code, len(lines))
		}
		var tr StreamErrorTrailer
		if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || tr.Kind != "query" ||
			!strings.Contains(tr.Error.Message, `"`+c.col+`"`) {
			t.Fatalf("%s: last stream line %s, want a query error trailer naming %q", c.sql, lines[len(lines)-1], c.col)
		}
	}
}

// BenchmarkAppendRows encodes one stream-shaped batch — BIGINT, DOUBLE
// and DATE over 1 024 rows with ~3 % live under a selection vector, the
// shape of the `stream` kind's range scan — into a reused line buffer,
// as StreamResult does. It must not allocate.
func BenchmarkAppendRows(b *testing.B) {
	const n = 1024
	batch := vector.NewBatchOfKinds([]vtypes.Kind{vtypes.KindI64, vtypes.KindF64, vtypes.KindDate}, n)
	for i := 0; i < n; i++ {
		batch.Vecs[0].I64[i] = int64(i) * 4_000_037
		batch.Vecs[1].F64[i] = float64(i*7919%100_000) / 100
		batch.Vecs[2].I64[i] = 8_000 + int64(i%2_500)
	}
	sel := batch.MutableSel(n)
	live := 0
	for i := 0; i < n; i += 32 {
		sel[live] = int32(i)
		live++
	}
	batch.SetSel(sel, live)
	var line []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if line, err = appendRows(line[:0], batch, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(line)))
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// Boundary values per kind: what a codec gets wrong first.
var (
	wireInts = []int64{0, 1, -1, math.MaxInt64, math.MinInt64,
		1<<53 + 1, -(1<<53 + 1), 1 << 62, 9007199254740993}
	wireFloats = []float64{0, math.Copysign(0, -1), 1.5, -1e-300, 0.1,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 53, 1e21}
	wireStrings = []string{"", " ", `"quoted"`, `back\slash`, "new\nline\ttab",
		"héllo wörld", "日本語", "🚀", "<script>&amp;</script>", "null", " "}
	wireDates = []int64{0, -1, vtypes.MustParseDate("0001-01-01"),
		vtypes.MustParseDate("9999-12-31"), vtypes.MustParseDate("2000-02-29")}
	wireKinds = []vtypes.Kind{vtypes.KindI64, vtypes.KindF64, vtypes.KindStr,
		vtypes.KindBool, vtypes.KindDate}
)

// randomWireBatch fills a batch of 1–6 columns (every kind appears
// across the run) and the given capacity with boundary-biased values,
// NULLs in any column, and — for sel — a random ascending selection
// vector, so the live rows are a strict subset of the physical ones.
func randomWireBatch(rng *rand.Rand, capacity int, sel bool) *vector.Batch {
	kinds := make([]vtypes.Kind, 1+rng.Intn(6))
	for j := range kinds {
		kinds[j] = wireKinds[rng.Intn(len(wireKinds))]
	}
	b := vector.NewBatchOfKinds(kinds, capacity)
	for j, k := range kinds {
		v := b.Vecs[j]
		nullRate := []float64{0, 0.1, 1}[rng.Intn(3)]
		for i := 0; i < capacity; i++ {
			if rng.Float64() < nullRate {
				v.Set(i, vtypes.NullValue(k))
				continue
			}
			boundary := rng.Intn(3) == 0
			switch k {
			case vtypes.KindI64:
				v.I64[i] = int64(rng.Uint64())
				if boundary {
					v.I64[i] = wireInts[rng.Intn(len(wireInts))]
				}
			case vtypes.KindF64:
				// Any finite bit pattern (JSON has no NaN/Inf).
				for {
					v.F64[i] = math.Float64frombits(rng.Uint64())
					if !math.IsNaN(v.F64[i]) && !math.IsInf(v.F64[i], 0) {
						break
					}
				}
				if boundary {
					v.F64[i] = wireFloats[rng.Intn(len(wireFloats))]
				}
			case vtypes.KindStr:
				v.Str[i] = strings.Repeat(wireStrings[rng.Intn(len(wireStrings))], rng.Intn(3))
				if boundary {
					v.Str[i] = wireStrings[rng.Intn(len(wireStrings))]
				}
			case vtypes.KindBool:
				v.B[i] = rng.Intn(2) == 0
			case vtypes.KindDate:
				v.I64[i] = int64(rng.Intn(80000) - 20000)
				if boundary {
					v.I64[i] = wireDates[rng.Intn(len(wireDates))]
				}
			}
		}
	}
	b.SetDense(capacity)
	if sel {
		s := b.MutableSel(capacity)
		n := 0
		for i := 0; i < capacity; i++ {
			if rng.Intn(2) == 0 {
				s[n] = int32(i)
				n++
			}
		}
		b.SetSel(s, n)
	}
	return b
}

// codeColumns turns b's VARCHAR vectors, and its DOUBLE vectors of at
// most 256 bit patterns, into coded ones over the same rows, as a scan of
// dictionary chunks delivers them: codes and a dictionary of first
// occurrences, no values.
func codeColumns(b *vector.Batch) {
	for _, v := range b.Vecs {
		switch v.Kind {
		case vtypes.KindStr:
			v.Codes, v.Dict = dictOf(v.Str, func(a, b string) bool { return a == b })
			v.Str = nil
		case vtypes.KindF64:
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if codes, dict := dictOf(v.F64, same); len(dict) <= 256 {
				v.F64, v.Codes, v.DictF64 = nil, codes, dict
			}
		}
	}
}

// dictOf codes vals over a dictionary of their first occurrences, same
// telling entries apart; codes wrap past 256 entries.
func dictOf[T any](vals []T, same func(a, b T) bool) ([]uint8, []T) {
	var dict []T
	codes := make([]uint8, len(vals))
	for i, x := range vals {
		c := slices.IndexFunc(dict, func(d T) bool { return same(d, x) })
		if c < 0 {
			c, dict = len(dict), append(dict, x)
		}
		codes[i] = uint8(c)
	}
	return codes, dict
}

// overTheWire sends a batch the way a node does and reads it back the
// way the coordinator's client does.
func overTheWire(t *testing.T, b *vector.Batch) *vector.Batch {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(StreamBatch{Rows: EncodeBatch(b)}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	var line StreamBatch
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("decode: %v", err)
	}
	out, err := DecodeBatch(line.Rows, b.Kinds())
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	return out
}

// sameValue is bit-exact equality (Value.Equal would let -0 equal +0).
func sameValue(a, b vtypes.Value) bool {
	return a.Kind == b.Kind && a.Null == b.Null && a.I64 == b.I64 &&
		math.Float64bits(a.F64) == math.Float64bits(b.F64) && a.Str == b.Str && a.B == b.B
}

// TestWireRoundTripProperty ties the two halves of the batch codec
// together: for 10 000 random batches — every kind, NULLs in every
// column, empty batches, batches under a selection vector, vector
// sizes 1/3/1024 — EncodeBatch → JSON → DecodeBatch reproduces exactly
// the live rows, as a dense batch.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 10_000; iter++ {
		// Mostly small vectors; 1 in 50 full-size, so the run stays
		// sub-second per thousand.
		capacity := []int{0, 1, 3}[rng.Intn(3)]
		if iter%50 == 0 {
			capacity = 1024
		}
		in := randomWireBatch(rng, capacity, rng.Intn(3) == 0)
		out := overTheWire(t, in)
		if out.N != in.N || out.Sel != nil || len(out.Vecs) != len(in.Vecs) {
			t.Fatalf("iter %d: decoded N=%d sel=%v cols=%d, want dense N=%d cols=%d",
				iter, out.N, out.Sel != nil, len(out.Vecs), in.N, len(in.Vecs))
		}
		for i := 0; i < in.N; i++ {
			want, got := in.Row(i), out.Row(i)
			for c := range want {
				if !sameValue(want[c], got[c]) {
					t.Fatalf("iter %d row %d col %d (%v): sent %#v, received %#v",
						iter, i, c, want[c].Kind, want[c], got[c])
				}
			}
		}
	}
}

// TestDecodeBatchRejectsMalformedRows: rows that do not fit the
// expected schema are errors, never silently coerced values.
func TestDecodeBatchRejectsMalformedRows(t *testing.T) {
	for _, c := range []struct {
		name  string
		rows  [][]any
		kinds []vtypes.Kind
		want  string
	}{
		{"short row", [][]any{{json.Number("1")}}, []vtypes.Kind{vtypes.KindI64, vtypes.KindI64}, "row arity 1, want 2"},
		{"long row", [][]any{{json.Number("1"), "x"}}, []vtypes.Kind{vtypes.KindI64}, "row arity 2, want 1"},
		{"string as BIGINT", [][]any{{"1"}}, []vtypes.Kind{vtypes.KindI64}, "does not decode as BIGINT"},
		{"float64 as BIGINT (no UseNumber)", [][]any{{float64(1)}}, []vtypes.Kind{vtypes.KindI64}, "does not decode as BIGINT"},
		{"fraction as BIGINT", [][]any{{json.Number("1.5")}}, []vtypes.Kind{vtypes.KindI64}, "invalid syntax"},
		{"overflow as BIGINT", [][]any{{json.Number("9223372036854775808")}}, []vtypes.Kind{vtypes.KindI64}, "out of range"},
		{"bool as DOUBLE", [][]any{{true}}, []vtypes.Kind{vtypes.KindF64}, "does not decode as DOUBLE"},
		{"number as VARCHAR", [][]any{{json.Number("1")}}, []vtypes.Kind{vtypes.KindStr}, "does not decode as VARCHAR"},
		{"string as BOOLEAN", [][]any{{"true"}}, []vtypes.Kind{vtypes.KindBool}, "does not decode as BOOLEAN"},
		{"number as DATE", [][]any{{json.Number("7")}}, []vtypes.Kind{vtypes.KindDate}, "does not decode as DATE"},
		{"malformed DATE", [][]any{{"1999-1-1"}}, []vtypes.Kind{vtypes.KindDate}, "invalid date"},
	} {
		if _, err := DecodeBatch(c.rows, c.kinds); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// Encoder-only edges: values the round trip cannot carry back (invalid
// UTF-8 decodes as U+FFFD, a year outside 0001–9999 does not parse) but
// appendRows must still spell exactly as encoding/json does.
var (
	encodeStrings = []string{"\xff", "a\xc3", "\xed\xa0\x80", "\u2028", "\u2029", "x\u2028y\u2029z",
		"<", ">", "&", "a<b>c&d", "\x7f", "\x00", "\x1f", "é<", `\u2028`, "plain text ~ 123"}
	encodeFloats = []float64{
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		-1e-6, -math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		-1e21, -math.Nextafter(1e21, 0),
		math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		math.Nextafter(2.2250738585072014e-308, 0), 1e-7, 1.5e-9, 1e-10, 123456789e-15, 1e20, 1e100}
	encodeDates = []int64{
		vtypes.MustParseDate("0001-01-01") - 1, vtypes.DaysFromCivil(0, 1, 1),
		vtypes.DaysFromCivil(-1, 12, 31), vtypes.DaysFromCivil(-12345, 6, 7),
		vtypes.DaysFromCivil(10000, 1, 1), vtypes.DaysFromCivil(123456, 2, 29)}
)

// mixEncodeEdges overwrites about a quarter of b's non-NULL slots with
// the encoder-only edges of their kind.
func mixEncodeEdges(rng *rand.Rand, b *vector.Batch) {
	for _, v := range b.Vecs {
		for i := 0; i < v.Len(); i++ {
			if (v.Nulls != nil && v.Nulls[i]) || rng.Intn(4) != 0 {
				continue
			}
			switch v.Kind {
			case vtypes.KindF64:
				v.F64[i] = encodeFloats[rng.Intn(len(encodeFloats))]
			case vtypes.KindStr:
				v.Str[i] = encodeStrings[rng.Intn(len(encodeStrings))]
			case vtypes.KindDate:
				v.I64[i] = encodeDates[rng.Intn(len(encodeDates))]
			}
		}
	}
}

// TestAppendRowsMatchesEncodingJSON: the byte encoder writes exactly what
// encoding/json writes for the boxed rows, json.Marshal(EncodeBatch(b)),
// over the round-trip property's 10 000 random batches with the
// encoder-only edges mixed in — and CollectEncoded over a run of batches
// is the JSON of all their rows, or nil when there are none.
func TestAppendRowsMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 10_000; iter++ {
		capacity := []int{0, 1, 3}[rng.Intn(3)]
		if iter%50 == 0 {
			capacity = 1024
		}
		b := randomWireBatch(rng, capacity, rng.Intn(3) == 0)
		mixEncodeEdges(rng, b)
		want, err := json.Marshal(EncodeBatch(b))
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			codeColumns(b) // a scan's view of dictionary chunks: read through
		}
		got, err := appendRows([]byte("kept"), b, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if string(got[:4]) != "kept" || !bytes.Equal(got[4:], want) {
			t.Fatalf("iter %d:\n got %s\nwant %s", iter, got[4:], want)
		}
	}

	for iter := 0; iter < 200; iter++ {
		kinds := []vtypes.Kind{vtypes.KindI64, vtypes.KindStr, vtypes.KindDate, vtypes.KindF64}
		var batches []*vector.Batch
		var all [][]any
		for n := rng.Intn(4); n > 0; n-- {
			b := vector.NewBatchOfKinds(kinds, 3)
			for i := 0; i < 3; i++ {
				b.Vecs[0].I64[i] = int64(rng.Intn(100))
				b.Vecs[1].Str[i] = wireStrings[rng.Intn(len(wireStrings))]
				b.Vecs[2].I64[i] = wireDates[rng.Intn(len(wireDates))]
				b.Vecs[3].F64[i] = wireFloats[rng.Intn(len(wireFloats))]
			}
			b.SetDense(rng.Intn(4))
			batches = append(batches, b)
			all = append(all, EncodeBatch(b)...)
		}
		got, err := CollectEncoded(nil, func() (*vector.Batch, error) {
			if len(batches) == 0 {
				return nil, nil
			}
			b := batches[0]
			batches = batches[1:]
			return b, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(all) == 0 {
			if got != nil {
				t.Fatalf("no rows encoded as %q, want nil", got)
			}
			continue
		}
		if want, _ := json.Marshal(all); !bytes.Equal(got, want) {
			t.Fatalf("collect:\n got %s\nwant %s", got, want)
		}
	}
}

// TestAppendRowsRefusesNonFinite: JSON cannot spell NaN or ±Inf, so the
// encoder fails with a NonFiniteError naming the column — unless the
// slot is NULL, whose payload is never read.
func TestAppendRowsRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := vector.NewBatchOfKinds([]vtypes.Kind{vtypes.KindI64, vtypes.KindF64}, 2)
		b.Vecs[1].F64[1] = f
		b.SetDense(2)
		_, err := appendRows(nil, b, []string{"k", "total"})
		var nf *NonFiniteError
		if !errors.As(err, &nf) || nf.Column != "total" || !strings.Contains(err.Error(), `"total"`) {
			t.Fatalf("%v: error %v, want a NonFiniteError naming \"total\"", f, err)
		}
		if status, body := engineErrorBody(err); status != http.StatusBadRequest || body.Code != "bad_request" {
			t.Fatalf("%v: classified %d %q", f, status, body.Code)
		}
		b.Vecs[1].EnsureNulls()
		b.Vecs[1].Nulls[1] = true
		got, err := appendRows(nil, b, nil)
		if err != nil || string(got) != `[[0,0],[0,null]]` {
			t.Fatalf("%v under NULL: %s, %v", f, got, err)
		}
	}
}

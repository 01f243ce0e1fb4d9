package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func mustSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	s, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testConfig(t *testing.T) config {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 7, seconds: 1, rounds: 2, scale: 0.01, golden: g}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that got carries exactly the wanted names, each
// once (it is a map), well-formed, finite and in the declared unit.
func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", w.Name)
		case !nameRE.MatchString(w.Name):
			t.Errorf("metric name %q is malformed", w.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v is not finite", w.Name, m.Value)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			found := false
			for _, w := range want {
				found = found || w.Name == name
			}
			if !found {
				t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
			}
		}
	}
}

// TestWorkloads runs every workload of BENCHMARK.json at a hundredth of
// its size for two rounds: every end-to-end metric comes out, nothing
// fails, and update_scan's restart check passes (it is part of finish).
func TestWorkloads(t *testing.T) {
	s := mustSpec(t)
	cfg := testConfig(t)
	for _, wl := range s.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			w := newWorkload(wl.Name, cfg)
			if w == nil {
				t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
			}
			rep, err := runUntraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Result.Failed != 0 || !rep.Result.Correct {
				t.Errorf("%d of %d statements failed: %s", rep.Result.Failed, rep.Result.Attempted, rep.FirstError)
			}
			checkMetrics(t, rep.Result.Metrics, s.EndToEnd)
			for name, m := range rep.Result.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRun checks the traced run: every per-layer metric comes out,
// the span file loads, every span but a statement's root has a parent in
// the same statement, and self times add up to the root's duration.
func TestTracedRun(t *testing.T) {
	s := mustSpec(t)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	rep, err := traceAll(testConfig(t), path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Failed != 0 {
		t.Errorf("%d statements failed: %s", rep.Result.Failed, rep.FirstError)
	}
	checkMetrics(t, rep.Result.Metrics, s.PerLayer)

	spans, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	checkSpanTree(t, spans)
	for _, want := range []string{"exec:q18", "front:adhoc", "http:stream", "exec:scan_delta", "exec:q6_cold"} {
		found := false
		for _, sp := range spans {
			found = found || sp.Name == want
		}
		if !found {
			t.Errorf("no %s span", want)
		}
	}
}

// checkSpanTree asserts the invariants of a span set.
func checkSpanTree(t *testing.T, spans []*span) {
	t.Helper()
	byID := map[int64]*span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	self := selfTimes(spans)
	sum := map[int64]time.Duration{}
	roots := map[int64]*span{}
	for _, sp := range spans {
		if sp.End < sp.Start {
			t.Errorf("span %d %s ends before it starts", sp.ID, sp.Name)
		}
		sum[sp.Stmt] += self[sp.ID]
		if sp.Parent == 0 {
			if roots[sp.Stmt] != nil {
				t.Errorf("statement %d has two roots", sp.Stmt)
			}
			roots[sp.Stmt] = sp
			continue
		}
		if p := byID[sp.Parent]; p == nil || p.Stmt != sp.Stmt {
			t.Errorf("span %d %s has no parent in its statement", sp.ID, sp.Name)
		}
	}
	for stmt, root := range roots {
		if d := math.Abs(float64(sum[stmt] - root.dur())); d > 0.05*float64(root.dur()) {
			t.Errorf("statement %d (%s): self times sum to %v, root lasts %v", stmt, root.Name, sum[stmt], root.dur())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.root("stmt")
	a := tr.child(root, "a")
	a1 := tr.child(a, "a1")
	b := tr.child(root, "b")
	// Fixed intervals: root 0-100, a 10-60 (a1 20-30), b 60-90.
	root.Start, root.End = 0, 100
	a.Start, a.End = 10, 60
	a1.Start, a1.End = 20, 30
	b.Start, b.End = 60, 90
	self := selfTimes(tr.spans)
	for sp, want := range map[*span]time.Duration{root: 20, a: 40, a1: 10, b: 30} {
		if self[sp.ID] != want {
			t.Errorf("self time of %s = %d, want %d", sp.Name, self[sp.ID], want)
		}
	}
	checkSpanTree(t, tr.spans)
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 4, 7, 3, 9, 2, 8, 5, 6})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

// TestDigestDiff: a mismatch names the kind and the first differing value.
func TestDigestDiff(t *testing.T) {
	want := &digest{Rows: 2, Cols: []colSum{{Class: "i", Hash: 5}, {Class: "f", Sum: 100, Abs: 100}}}
	same := &digest{Rows: 2, Cols: []colSum{{Class: "i", Hash: 5}, {Class: "f", Sum: 100 + 1e-8, Abs: 100 + 1e-8}}}
	if err := want.diff("q1", same); err != nil {
		t.Errorf("sums within tolerance differ: %v", err)
	}
	off := &digest{Rows: 2, Cols: []colSum{{Class: "i", Hash: 5}, {Class: "f", Sum: 101, Abs: 101}}}
	err := want.diff("q1", off)
	if err == nil || !strings.Contains(err.Error(), "q1") || !strings.Contains(err.Error(), "101") {
		t.Errorf("diff = %v; want the kind and the differing value", err)
	}
	if err := want.diff("q1", &digest{Rows: 3, Cols: want.Cols}); err == nil {
		t.Error("row count mismatch not reported")
	}
}

// readSpans loads a span file written by tracer.write.
func readSpans(path string) ([]*span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*span
	dec := json.NewDecoder(f)
	for dec.More() {
		s := new(span)
		if err := dec.Decode(s); err != nil {
			return nil, fmt.Errorf("read spans: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

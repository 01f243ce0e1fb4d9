package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/expr"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// batchSource serves preset batches once — the minimal child for
// driving operator internals directly.
type batchSource struct {
	schema  *vtypes.Schema
	batches []*vector.Batch
	pos     int
	// onNext, when non-nil, runs before each Next (cancellation hooks).
	onNext func(call int)
	calls  int
}

func (s *batchSource) Schema() *vtypes.Schema { return s.schema }
func (s *batchSource) Open() error            { s.pos = 0; s.calls = 0; return nil }
func (s *batchSource) Close() error           { return nil }
func (s *batchSource) Next() (*vector.Batch, error) {
	if s.onNext != nil {
		s.onNext(s.calls)
	}
	s.calls++
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}

// i64Batch builds a dense single-column BIGINT batch from keys.
func i64Batch(keys []int64) *vector.Batch {
	b := vector.NewBatch(i64Schema(), len(keys))
	copy(b.Vecs[0].I64, keys)
	b.SetDense(len(keys))
	return b
}

func repeatKeys(n int, distinct int64) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) % distinct
	}
	return keys
}

// q1Shape is Q1's aggregation over one dense 1K batch whose rows fall into
// `groups` (returnflag, linestatus) pairs in runs of 1 to 7 rows, as the
// lines of one order tend to share both: the two VARCHAR keys, then
// quantity, price, discount and tax, and Q1's eight aggregates with each
// argument one Expr, as the cross-compiler shares equal arguments. Every
// group occurs in the batch.
func q1Shape(groups int) (*vector.Batch, []Expr, []AggSpec, []string) {
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "rf", Kind: vtypes.KindStr}, vtypes.Column{Name: "ls", Kind: vtypes.KindStr},
		vtypes.Column{Name: "qty", Kind: vtypes.KindF64}, vtypes.Column{Name: "price", Kind: vtypes.KindF64},
		vtypes.Column{Name: "disc", Kind: vtypes.KindF64}, vtypes.Column{Name: "tax", Kind: vtypes.KindF64})
	b := vector.NewBatch(schema, vector.DefaultSize)
	rng := rand.New(rand.NewSource(int64(groups)))
	g, run := 0, 0
	for i := 0; i < vector.DefaultSize; i++ {
		if run == 0 {
			g, run = rng.Intn(groups), 1+rng.Intn(7)
		}
		run--
		if i < groups {
			g = i
		}
		b.Vecs[0].Str[i], b.Vecs[1].Str[i] = fmt.Sprint("R", g/2), fmt.Sprint("L", g%2)
		b.Vecs[2].F64[i], b.Vecs[3].F64[i] = float64(1+i%50), float64(900+i%1000)
		b.Vecs[4].F64[i], b.Vecs[5].F64[i] = float64(i%11)/100, float64(i%9)/100
	}
	b.SetDense(vector.DefaultSize)
	qty, price, disc, tax := col(2, vtypes.KindF64), col(3, vtypes.KindF64), col(4, vtypes.KindF64), col(5, vtypes.KindF64)
	oneMinusDisc, _ := expr.NewArith(algebra.OpSub, f64c(1), disc)
	discPrice, _ := expr.NewArith(algebra.OpMul, price, oneMinusDisc)
	onePlusTax, _ := expr.NewArith(algebra.OpAdd, f64c(1), tax)
	charge, _ := expr.NewArith(algebra.OpMul, discPrice, onePlusTax)
	aggs := []AggSpec{
		{Fn: AggSum, Arg: qty}, {Fn: AggSum, Arg: price}, {Fn: AggSum, Arg: discPrice}, {Fn: AggSum, Arg: charge},
		{Fn: AggCount, Arg: qty}, {Fn: AggCount, Arg: price}, {Fn: AggSum, Arg: disc}, {Fn: AggCount, Arg: disc}, {Fn: AggCountStar},
	}
	names := []string{"rf", "ls", "sum_qty", "sum_base_price", "sum_disc_price", "sum_charge",
		"count_qty", "count_price", "sum_disc", "count_disc", "count_order"}
	return b, []Expr{col(0, vtypes.KindStr), col(1, vtypes.KindStr)}, aggs, names
}

// withCodes returns a batch viewing b's vectors, its VARCHAR columns coded
// (entries in first-occurrence order, no strings) as a scan of
// dictionary-coded chunks delivers them.
func withCodes(b *vector.Batch) *vector.Batch {
	out := *b
	out.Vecs = slices.Clone(b.Vecs)
	for c, v := range out.Vecs {
		if v.Kind != vtypes.KindStr {
			continue
		}
		coded := &vector.Vector{Kind: v.Kind, Codes: make([]uint8, len(v.Str)), Nulls: v.Nulls, Shared: &vector.Shared{}}
		idx := map[string]uint8{}
		for i, s := range v.Str {
			code, ok := idx[s]
			if !ok {
				code = uint8(len(coded.Shared.Dict))
				idx[s], coded.Shared.Dict = code, append(coded.Shared.Dict, s)
			}
			coded.Codes[i] = code
		}
		out.Vecs[c] = coded
	}
	return &out
}

// TestHashAggProbeNoSteadyStateAllocs pins the zero-allocation contract
// on the aggregate probe path: once every group exists and the table is
// at stable size, consuming a batch allocates nothing (key vectors hoisted,
// table scratch reused, accumulators and NULL counts in place), whether
// the batch is scattered row by row or partitioned into group runs: 500
// BIGINT groups; Q1 (two VARCHAR keys, 4 groups, shared arguments) under
// a sparse selection vector, as strings and as dictionary codes; an
// ungrouped SUM, COUNT(*) and MIN; and a DOUBLE argument carrying a null
// indicator.
func TestHashAggProbeNoSteadyStateAllocs(t *testing.T) {
	k, v := col(0, vtypes.KindI64), col(1, vtypes.KindF64)
	kv := vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindF64, Nullable: true})
	nullable := vector.NewBatch(kv, vector.DefaultSize)
	nullable.Vecs[1].EnsureNulls()
	for i := 0; i < vector.DefaultSize; i++ {
		nullable.Vecs[0].I64[i], nullable.Vecs[1].F64[i] = int64(i%4), float64(i)
		nullable.Vecs[1].Nulls[i] = i%5 == 0
	}
	nullable.SetDense(vector.DefaultSize)

	q1, q1Keys, q1Aggs, q1Names := q1Shape(4)
	sel := q1.MutableSel(vector.DefaultSize)
	live := 0
	for i := 0; i < vector.DefaultSize; i += 3 {
		sel[live] = int32(i)
		live++
	}
	q1.SetSel(sel, live)

	for _, tc := range []struct {
		name    string
		batch   *vector.Batch
		groupBy []Expr
		aggs    []AggSpec
		names   []string
	}{
		{"500-groups", i64Batch(repeatKeys(1024, 500)), []Expr{col(0, vtypes.KindI64)},
			[]AggSpec{{Fn: AggSum, Arg: col(0, vtypes.KindI64)}}, []string{"k", "s"}},
		{"q1-sparse", q1, q1Keys, q1Aggs, q1Names},
		{"q1-codes-sparse", withCodes(q1), q1Keys, q1Aggs, q1Names},
		{"ungrouped", nullable, nil,
			[]AggSpec{{Fn: AggSum, Arg: k}, {Fn: AggCountStar}, {Fn: AggMin, Arg: k}}, []string{"s", "n", "m"}},
		{"null-arg", nullable, []Expr{k},
			[]AggSpec{{Fn: AggSum, Arg: v}, {Fn: AggCount, Arg: v}, {Fn: AggMax, Arg: v}},
			[]string{"k", "s", "c", "m"}},
	} {
		for _, flavour := range []struct {
			name     string
			smallMax int
		}{{"scatter", 0}, {"runs", math.MaxInt}} {
			t.Run(tc.name+"/"+flavour.name, func(t *testing.T) {
				agg := NewHashAggregate(&batchSource{schema: i64Schema()}, tc.groupBy, tc.aggs, tc.names)
				agg.smallMax = flavour.smallMax
				if err := agg.Open(); err != nil {
					t.Fatal(err)
				}
				defer agg.Close()
				if err := agg.consumeBatch(tc.batch); err != nil { // creates every group
					t.Fatal(err)
				}
				got := testing.AllocsPerRun(100, func() {
					if err := agg.consumeBatch(tc.batch); err != nil {
						t.Fatal(err)
					}
				})
				if got != 0 {
					t.Fatalf("hashagg probe path allocates %.1f/op at stable table size, want 0", got)
				}
			})
		}
	}

	// An ordered key streams: once the buffers have grown to what a flush
	// holds, each Next — consume up to a flush, emit, forget — allocates
	// nothing, whether groups come from runs or from the table.
	for _, keys := range [][]Expr{{col(0, vtypes.KindI64)}, {col(0, vtypes.KindI64), col(2, vtypes.KindI64)}} {
		t.Run(fmt.Sprintf("ordered-%d-keys", len(keys)), func(t *testing.T) {
			agg := NewHashAggregate(&risingSource{per: 3}, keys,
				[]AggSpec{{Fn: AggSum, Arg: col(1, vtypes.KindF64)}, {Fn: AggCountStar}}, []string{"k", "x", "q", "n"}[:len(keys)+2])
			agg.SetOrderedKey(0)
			if err := agg.Open(); err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			next := func() {
				if b, err := agg.Next(); err != nil || b == nil || b.N == 0 {
					t.Fatalf("batch %v, err %v", b, err)
				}
			}
			for range 100 {
				next()
			}
			if got := testing.AllocsPerRun(100, next); got != 0 {
				t.Fatalf("ordered hashagg allocates %.1f/op per output batch, want 0", got)
			}
		})
	}
}

// risingSource is an endless input in key order: (k BIGINT, q DOUBLE,
// x BIGINT) batches whose row r has key r/per, q = r%50 and x = r%2. Its
// one batch is rewritten in place for every Next.
type risingSource struct {
	per   int64
	row   int64
	batch *vector.Batch
}

func (s *risingSource) Schema() *vtypes.Schema {
	return vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "q", Kind: vtypes.KindF64}, vtypes.Column{Name: "x", Kind: vtypes.KindI64})
}
func (s *risingSource) Open() error  { s.row = 0; return nil }
func (s *risingSource) Close() error { return nil }
func (s *risingSource) Next() (*vector.Batch, error) {
	if s.batch == nil {
		s.batch = vector.NewBatch(s.Schema(), vector.DefaultSize)
	}
	for i := range vector.DefaultSize {
		r := s.row + int64(i)
		s.batch.Vecs[0].I64[i], s.batch.Vecs[1].F64[i], s.batch.Vecs[2].I64[i] = r/s.per, float64(r%50), r%2
	}
	s.row += vector.DefaultSize
	s.batch.SetDense(vector.DefaultSize)
	return s.batch, nil
}

// TestHashJoinProbeNoSteadyStateAllocs pins the same contract on the
// join probe path — hash, batched Find, match walk and output — once the
// operator's buffers exist: a probe batch that matches nothing, one whose
// every row matches once (probe vectors pass through, build columns
// scatter to the match positions) and one whose rows fan out (both sides
// gather into the reused dense output batch) all allocate nothing.
func TestHashJoinProbeNoSteadyStateAllocs(t *testing.T) {
	shift := func(keys []int64, by int64) []int64 {
		out := make([]int64, len(keys))
		for i, k := range keys {
			out[i] = k + by
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		build       []int64
		probe       []int64
		rows        int  // output rows per probe batch
		passThrough bool // output batches reference the probe vectors
	}{
		{"miss", repeatKeys(1024, 1024), shift(repeatKeys(1024, 1024), 100000), 0, false},
		{"match-once", repeatKeys(1024, 1024), repeatKeys(1024, 512), 1024, true},
		{"fan-out", repeatKeys(4096, 1024), repeatKeys(1024, 1024), 4096, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe := i64Batch(tc.probe)
			j, err := NewHashJoin(
				&batchSource{schema: i64Schema()},
				&batchSource{schema: i64Schema(), batches: []*vector.Batch{i64Batch(tc.build)}},
				[]Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := j.buildTable(); err != nil {
				t.Fatal(err)
			}
			run := func() {
				if err := j.probeBatch(probe); err != nil {
					t.Fatal(err)
				}
				rows := 0
				for out := j.emit(); out != nil; out = j.emit() {
					if out.N > j.vecSize {
						t.Fatalf("batch of %d rows exceeds the vector size", out.N)
					}
					if got := out.Vecs[0] == probe.Vecs[0]; got != tc.passThrough {
						t.Fatalf("probe vectors passed through = %v, want %v", got, tc.passThrough)
					}
					rows += out.N
				}
				if rows != tc.rows {
					t.Fatalf("emitted %d rows, want %d", rows, tc.rows)
				}
			}
			run() // allocates the output vectors
			if got := testing.AllocsPerRun(100, run); got != 0 {
				t.Fatalf("hashjoin probe path allocates %.1f/op at stable table size, want 0", got)
			}
		})
	}
}

// hicardBatches returns rows/1024 dense (k BIGINT, q DOUBLE) batches whose
// k cycles through `groups` distinct values in a scrambled order.
func hicardBatches(rows, groups int) (*vtypes.Schema, []*vector.Batch) {
	schema := vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "q", Kind: vtypes.KindF64})
	var out []*vector.Batch
	for lo := 0; lo < rows; lo += vector.DefaultSize {
		b := vector.NewBatch(schema, vector.DefaultSize)
		for i := range vector.DefaultSize {
			b.Vecs[0].I64[i] = int64((lo + i) % groups * 7919 % groups)
			b.Vecs[1].F64[i] = float64(i % 50)
		}
		b.SetDense(vector.DefaultSize)
		out = append(out, b)
	}
	return schema, out
}

// TestHashAggHighCardinalityAllocBudget gates what a 300 K-group
// aggregate over 1.2 M rows allocates (agg_hicard's shape: GROUP BY a
// BIGINT, SUM and COUNT(*)): 22.8 MB with a batch's new groups stored
// together, 27.4 MB when each new group extended every accumulator by one
// slot. The race detector's runtime allocates for appends as well, so the
// budget holds for the ordinary build only.
func TestHashAggHighCardinalityAllocBudget(t *testing.T) {
	const budgetMB = 25
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts differ under the race detector")
	}
	schema, batches := hicardBatches(1_200_000, 300_000)
	agg := NewHashAggregate(&batchSource{schema: schema, batches: batches}, []Expr{col(0, vtypes.KindI64)},
		[]AggSpec{{Fn: AggSum, Arg: col(1, vtypes.KindF64)}, {Fn: AggCountStar}}, []string{"k", "qty", "n"})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, err := Drain(agg)
	runtime.ReadMemStats(&m1)
	if err != nil || n != 300_000 {
		t.Fatalf("%d groups, err %v", n, err)
	}
	if mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20); mb > budgetMB {
		t.Errorf("allocates %.2f MB, budget %d MB", mb, budgetMB)
	}
}

// TestStopAndGoOutputNoSteadyStateAllocs: Sort.Next and
// HashAggregate.Next gather into one output batch allocated with the
// first batch they return; every later Next allocates nothing.
func TestStopAndGoOutputNoSteadyStateAllocs(t *testing.T) {
	const rows = 200 * vector.DefaultSize
	input := func() *batchSource {
		src := &batchSource{schema: i64Schema()}
		for lo := 0; lo < rows; lo += vector.DefaultSize {
			keys := make([]int64, vector.DefaultSize)
			for i := range keys {
				keys[i] = int64((lo + i) * 7919 % rows) // distinct, shuffled
			}
			src.batches = append(src.batches, i64Batch(keys))
		}
		return src
	}
	ops := map[string]Operator{
		"sort": NewSort(input(), []SortKey{{Expr: col(0, vtypes.KindI64), Desc: true}}),
		"hashagg": NewHashAggregate(input(),
			[]Expr{col(0, vtypes.KindI64)},
			[]AggSpec{{Fn: AggCountStar}, {Fn: AggSum, Arg: col(0, vtypes.KindI64)}},
			[]string{"k", "n", "s"}),
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			defer op.Close()
			if b, err := op.Next(); err != nil || b == nil { // consumes the input, allocates the output batch
				t.Fatalf("first batch: %v %v", b, err)
			}
			got := testing.AllocsPerRun(100, func() {
				if b, err := op.Next(); err != nil || b == nil || b.N != vector.DefaultSize {
					t.Fatalf("batch: %v %v", b, err)
				}
			})
			if got != 0 {
				t.Fatalf("%s.Next allocates %.1f/op after its first output batch, want 0", name, got)
			}
		})
	}
}

// TestJoinCancellationMidBuild: a context canceled while the build side
// is still streaming stops the build loop at the next batch boundary —
// the regression guard for the new batched build loop.
func TestJoinCancellationMidBuild(t *testing.T) {
	var batches []*vector.Batch
	for i := 0; i < 8; i++ {
		batches = append(batches, i64Batch(repeatKeys(256, 256)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	buildSrc := &batchSource{schema: i64Schema(), batches: batches}
	buildSrc.onNext = func(call int) {
		if call == 3 { // cancel mid-build, several batches in
			cancel()
		}
	}
	j, err := NewHashJoin(
		&batchSource{schema: i64Schema()},
		buildSrc,
		[]Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
	if err != nil {
		t.Fatal(err)
	}
	j.SetContext(ctx)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from mid-build cancel, got %v", err)
	}
	if buildSrc.calls >= len(batches) {
		t.Fatalf("build ran to completion (%d calls) despite cancellation", buildSrc.calls)
	}
}

// BenchmarkHashAggProbe measures the steady-state aggregate probe path:
// one Q1-shaped 1K batch (two VARCHAR keys, Q1's eight aggregates)
// against a stable table of 4, 16, 64 or 500 groups per iteration, with
// every batch partitioned into group runs and with every batch scattered
// row by row. Where the two cross sets smallGroups. new-groups is
// agg_hicard's growth path instead: GROUP BY a BIGINT with SUM and
// COUNT(*), every row of every batch a new group, 307 200 groups before
// the aggregate starts over.
func BenchmarkHashAggProbe(b *testing.B) {
	b.Run("new-groups", func(b *testing.B) {
		schema, batches := hicardBatches(300*vector.DefaultSize, 300*vector.DefaultSize)
		agg := NewHashAggregate(&batchSource{schema: schema}, []Expr{col(0, vtypes.KindI64)},
			[]AggSpec{{Fn: AggSum, Arg: col(1, vtypes.KindF64)}, {Fn: AggCountStar}}, []string{"k", "qty", "n"})
		if err := agg.Open(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(batches)
			if k == 0 && i > 0 {
				b.StopTimer()
				agg.Close()
				if err := agg.Open(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if err := agg.consumeBatch(batches[k]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		agg.Close()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vector.DefaultSize), "ns/row")
	})
	for _, groups := range []int{4, 16, 64, 500} {
		for _, flavour := range []struct {
			name     string
			smallMax int
		}{{"runs", math.MaxInt}, {"scatter", 0}} {
			b.Run(fmt.Sprintf("groups=%d/%s", groups, flavour.name), func(b *testing.B) {
				batch, keys, aggs, names := q1Shape(groups)
				agg := NewHashAggregate(&batchSource{schema: i64Schema()}, keys, aggs, names)
				agg.smallMax = flavour.smallMax
				if err := agg.Open(); err != nil {
					b.Fatal(err)
				}
				defer agg.Close()
				for range 2 { // creates every group, then grows the table to its stable size
					if err := agg.consumeBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := agg.consumeBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.N), "ns/row")
			})
		}
	}
}

// BenchmarkHashAggOrderedKey is agg_hicard's aggregation — GROUP BY a
// BIGINT, SUM and COUNT(*) — over a key that arrives in order in runs of
// four rows, lineitem's mean per orderkey: group ids from runs, a flush
// every four batches. ns/row is per input row; every Next after the
// buffers have grown allocates nothing.
func BenchmarkHashAggOrderedKey(b *testing.B) {
	src := &risingSource{per: 4}
	agg := NewHashAggregate(src, []Expr{col(0, vtypes.KindI64)},
		[]AggSpec{{Fn: AggSum, Arg: col(1, vtypes.KindF64)}, {Fn: AggCountStar}}, []string{"k", "q", "n"})
	agg.SetOrderedKey(0)
	if err := agg.Open(); err != nil {
		b.Fatal(err)
	}
	defer agg.Close()
	for range 100 {
		if _, err := agg.Next(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := src.row
	for i := 0; i < b.N; i++ {
		if out, err := agg.Next(); err != nil || out == nil {
			b.Fatalf("batch %v, err %v", out, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(src.row-start), "ns/row")
}

// BenchmarkHashAggDictKeys is Q1's aggregation over its six
// (returnflag, linestatus) groups with both VARCHAR keys carrying
// dictionary codes, beside its plain-string twin: ns/row for turning keys
// into group ids through the code cache or through hashing and key
// verification, plus the accumulation both share.
func BenchmarkHashAggDictKeys(b *testing.B) {
	batch, keys, aggs, names := q1Shape(6)
	for _, in := range []struct {
		name  string
		batch *vector.Batch
	}{{"codes", withCodes(batch)}, {"strings", batch}} {
		b.Run(in.name, func(b *testing.B) {
			agg := NewHashAggregate(&batchSource{schema: i64Schema()}, keys, aggs, names)
			if err := agg.Open(); err != nil {
				b.Fatal(err)
			}
			defer agg.Close()
			if err := agg.consumeBatch(in.batch); err != nil { // creates every group
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := agg.consumeBatch(in.batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*in.batch.N), "ns/row")
		})
	}
}

// BenchmarkHashAggSmallIntKeys is a full scan's GROUP BY on a small-range
// BIGINT key: 64 groups, COUNT(*) and SUM of a DOUBLE, the key cycling
// through its groups the way a table loaded in key order deals them out.
// ns/row for turning keys into group ids through the code cache's integer
// offsets, plus the accumulation.
func BenchmarkHashAggSmallIntKeys(b *testing.B) {
	schema := vtypes.NewSchema(vtypes.Column{Name: "grp", Kind: vtypes.KindI64}, vtypes.Column{Name: "v", Kind: vtypes.KindF64})
	batch := vector.NewBatch(schema, vector.DefaultSize)
	for i := range vector.DefaultSize {
		batch.Vecs[0].I64[i], batch.Vecs[1].F64[i] = int64(i%64), float64(i%1000)/4
	}
	batch.SetDense(vector.DefaultSize)
	agg := NewHashAggregate(&batchSource{schema: schema}, []Expr{col(0, vtypes.KindI64)},
		[]AggSpec{{Fn: AggCountStar}, {Fn: AggSum, Arg: col(1, vtypes.KindF64)}}, []string{"grp", "n", "total"})
	if err := agg.Open(); err != nil {
		b.Fatal(err)
	}
	defer agg.Close()
	if err := agg.consumeBatch(batch); err != nil { // creates every group
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.consumeBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.N), "ns/row")
}

// BenchmarkHashJoinProbeMiss measures Q18's join probes: 1 M probe rows,
// every thousandth a build key and the rest absent, against a 1 283-row
// build, whose table is sized once at 4 096 slots (0.31 full). ns/row is
// per probe row; the probe path allocates nothing.
func BenchmarkHashJoinProbeMiss(b *testing.B) {
	const keys, rows = 1283, 1 << 20
	build := make([]int64, keys)
	for i := range build {
		build[i] = int64(i) * 7919
	}
	rng := rand.New(rand.NewSource(1))
	var probe []*vector.Batch
	for lo := 0; lo < rows; lo += vector.DefaultSize {
		ks := make([]int64, vector.DefaultSize)
		for i := range ks {
			ks[i] = 1<<40 + rng.Int63n(1<<30)
			if (lo+i)%1000 == 0 {
				ks[i] = build[rng.Intn(keys)]
			}
		}
		probe = append(probe, i64Batch(ks))
	}
	j, err := NewHashJoin(&batchSource{schema: i64Schema()},
		&batchSource{schema: i64Schema(), batches: []*vector.Batch{i64Batch(build)}},
		[]Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
	if err != nil {
		b.Fatal(err)
	}
	if err := j.Open(); err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	if err := j.buildTable(); err != nil {
		b.Fatal(err)
	}
	run := func(batches []*vector.Batch) {
		for _, pb := range batches {
			if err := j.probeBatch(pb); err != nil {
				b.Fatal(err)
			}
			for out := j.emit(); out != nil; out = j.emit() {
			}
		}
	}
	run(probe[:1]) // a match in row 0 allocates the output vectors
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(probe)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkHashJoinMergeProbe is the merge form of the orderkey joins:
// 1 M probe rows in key order, one to seven rows per key, against a build
// over the same range. dense is 300 K build keys 0, 2, 4, … once each,
// which about half of the probe's keys miss; per25 and per1000 are the
// shapes of join_sort's joins, whose filtered orders are far fewer than
// the lines probing them: every sixth probe key (one build key per ~25
// probe rows, Q3, Q5, Q10) and every 250th (one per ~1 000, Q18). ns/row
// is per probe row; the probe path allocates nothing.
func BenchmarkHashJoinMergeProbe(b *testing.B) {
	const keys, rows = 300_000, 1 << 20
	var probe []*vector.Batch
	ks, distinct := make([]int64, 0, rows), []int64(nil)
	for k := int64(0); len(ks) < rows; k++ {
		distinct = append(distinct, k*2*keys/(rows/4))
		for range 1 + k*5%7 {
			ks = append(ks, distinct[k])
		}
	}
	for lo := 0; lo+vector.DefaultSize <= rows; lo += vector.DefaultSize {
		probe = append(probe, i64Batch(ks[lo:lo+vector.DefaultSize]))
	}
	dense, every := make([]int64, keys), func(n int) (out []int64) {
		for i := 0; i < len(distinct); i += n {
			out = append(out, distinct[i])
		}
		return out
	}
	for i := range dense {
		dense[i] = 2 * int64(i)
	}
	for _, c := range []struct {
		name  string
		build []int64
	}{{"dense", dense}, {"per25", every(6)}, {"per1000", every(250)}} {
		b.Run(c.name, func(b *testing.B) {
			var batches []*vector.Batch
			for lo := 0; lo < len(c.build); lo += vector.DefaultSize {
				batches = append(batches, i64Batch(c.build[lo:min(lo+vector.DefaultSize, len(c.build))]))
			}
			j, err := NewHashJoin(&batchSource{schema: i64Schema()}, &batchSource{schema: i64Schema(), batches: batches},
				[]Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
			if err != nil {
				b.Fatal(err)
			}
			j.Merge()
			if err := j.Open(); err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			if err := j.buildTable(); err != nil {
				b.Fatal(err)
			}
			run := func() {
				j.cursor = 0 // start the probe side over
				for _, pb := range probe {
					if err := j.probeBatch(pb); err != nil {
						b.Fatal(err)
					}
					for out := j.emit(); out != nil; out = j.emit() {
					}
				}
			}
			run() // allocates the output vectors
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(probe)*vector.DefaultSize), "ns/row")
		})
	}
}

// benchRows builds rows/1024 dense (k BIGINT, v DOUBLE, s VARCHAR)
// batches; keys cycle through `distinct` values in a scrambled order.
func benchRows(rows int, distinct int64) (*vtypes.Schema, []*vector.Batch) {
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindF64},
		vtypes.Column{Name: "s", Kind: vtypes.KindStr})
	var out []*vector.Batch
	for lo := 0; lo < rows; lo += vector.DefaultSize {
		b := vector.NewBatch(schema, vector.DefaultSize)
		for i := 0; i < vector.DefaultSize; i++ {
			k := int64(lo+i) * 7919 % distinct
			b.Vecs[0].I64[i], b.Vecs[1].F64[i], b.Vecs[2].Str[i] = k, float64(k)/4, "payload"
		}
		b.SetDense(vector.DefaultSize)
		out = append(out, b)
	}
	return schema, out
}

// BenchmarkHashJoinBuildEmit measures a whole inner join per iteration:
// build 256 K rows (three columns, unique keys), probe 256 K rows that
// each match once — append, insert, lookup and the pass-through output
// path. rows/s counts build plus probe rows; B/op is what one join
// allocates (its buffers, once).
func BenchmarkHashJoinBuildEmit(b *testing.B) {
	const rows = 256 << 10
	schema, batches := benchRows(rows, rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j, err := NewHashJoin(
			&batchSource{schema: schema, batches: batches},
			&batchSource{schema: schema, batches: batches},
			[]Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
		if err != nil {
			b.Fatal(err)
		}
		if n, err := Drain(j); err != nil || n != rows {
			b.Fatalf("joined %d rows, err %v", n, err)
		}
	}
	b.ReportMetric(float64(2*rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkSortEmit measures materialize + sort + output of 256 K
// three-column rows per iteration: on (v DESC, k), two fixed-width keys;
// on (s, k), where s ties on its key prefix in runs of 64 that the
// comparisons finish; the first 100 rows on (v DESC, k), which holds
// 2 048 rows at a time; and sortfull, the shape of the benchmark's
// `ORDER BY l_extendedprice DESC, l_orderkey` over 259 K lineitem rows:
// a price-like DOUBLE whose codes vary in ~55 bits, an ascending
// orderkey-like BIGINT and a DATE payload.
func BenchmarkSortEmit(b *testing.B) {
	const rows = 256 << 10
	schema, batches := benchRows(rows, rows/4)
	for _, batch := range batches {
		for i, k := range batch.Vecs[0].I64[:batch.N] {
			batch.Vecs[2].Str[i] = fmt.Sprintf("%011d-%02d", k/16, k%16)
		}
	}
	k, v, s := col(0, vtypes.KindI64), col(1, vtypes.KindF64), col(2, vtypes.KindStr)
	fullSchema, fullBatches := lineitemSortRows(259_000)
	for _, bc := range []struct {
		name    string
		schema  *vtypes.Schema
		batches []*vector.Batch
		keys    []SortKey
		topN    int64
	}{
		{"f64desc_i64", schema, batches, []SortKey{{Expr: v, Desc: true}, {Expr: k}}, 0},
		{"str_i64", schema, batches, []SortKey{{Expr: s}, {Expr: k}}, 0},
		{"topn100", schema, batches, []SortKey{{Expr: v, Desc: true}, {Expr: k}}, 100},
		{"sortfull", fullSchema, fullBatches, []SortKey{{Expr: col(1, vtypes.KindF64), Desc: true}, {Expr: k}}, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n := 0
			for _, batch := range bc.batches {
				n += batch.N
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src := &batchSource{schema: bc.schema, batches: bc.batches}
				op, want := NewSort(src, bc.keys), int64(n)
				if bc.topN > 0 {
					op, want = NewTopN(src, bc.keys, bc.topN), bc.topN
				}
				if got, err := Drain(op); err != nil || got != want {
					b.Fatalf("sorted %d rows, err %v", got, err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// lineitemSortRows builds rows (l_orderkey BIGINT, l_extendedprice
// DOUBLE, l_shipdate DATE) in orderkey order, as a scan of TPC-H's
// lineitem at SF 0.2 after a date filter delivers them: orderkeys up to
// ~1.2 M, one to seven lines each; prices of two decimals between 901
// and 104 949.50; ship dates over 1997-1998.
func lineitemSortRows(rows int) (*vtypes.Schema, []*vector.Batch) {
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "l_orderkey", Kind: vtypes.KindI64},
		vtypes.Column{Name: "l_extendedprice", Kind: vtypes.KindF64},
		vtypes.Column{Name: "l_shipdate", Kind: vtypes.KindDate})
	rng := rand.New(rand.NewSource(58))
	var out []*vector.Batch
	order, lines := int64(1), 0
	for lo := 0; lo < rows; lo += vector.DefaultSize {
		n := min(vector.DefaultSize, rows-lo)
		b := vector.NewBatch(schema, n)
		for i := range n {
			if lines == 0 {
				order += 1 + rng.Int63n(36)
				lines = 1 + rng.Intn(7)
			}
			lines--
			b.Vecs[0].I64[i] = order
			b.Vecs[1].F64[i] = float64(90_100+rng.Int63n(10_404_850)) / 100
			b.Vecs[2].I64[i] = 9862 + rng.Int63n(730)
		}
		b.SetDense(n)
		out = append(out, b)
	}
	return schema, out
}

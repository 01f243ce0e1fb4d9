package vectorwise

// Benchmark harness: one benchmark family per paper table — the TPC-H
// suite on each engine (TPCHSuite: the §I-C results, the >10× claim over
// tuple-at-a-time and the one over full materialization), then T2, T3,
// T5, T6, F1 and F2. Run them with
//
//	go test -run=NONE -bench 'TPCHSuite|F1|F2|T2|T3|T5|T6' .
//
// The TPC-H ones run the planner's plan of each suite query
// (tpch.RunQuery), the plan DB.Query runs. The repository's performance
// trajectory is bench/ (bash bench/run.sh), not these.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"vectorwise/internal/bufmgr"
	"vectorwise/internal/catalog"
	"vectorwise/internal/compress"
	"vectorwise/internal/core"
	"vectorwise/internal/matengine"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// benchSF is the benchmark scale factor (≈15K orders, ≈60K lineitems).
const benchSF = 0.01

var (
	benchOnce sync.Once
	benchCat  *catalog.Catalog
	benchErr  error
)

func benchCatalog(b *testing.B) *catalog.Catalog {
	benchOnce.Do(func() {
		benchCat, benchErr = tpch.Generate(benchSF, 8192)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCat
}

func runSuiteQuery(b *testing.B, name string, engine tpch.Engine, parallel int) {
	cat := benchCatalog(b)
	q, _ := tpch.FindSQL(name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tpch.RunQuery(cat, q, tpch.RunOptions{Engine: engine, Parallel: parallel}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- TPC-H suite per engine (§I-C; vectorized vs tuple-at-a-time and
// vs column-at-a-time materialization) ---

// BenchmarkTPCHSuite runs every suite query serially on each engine; the
// materialized runs also report the bytes of intermediates they write.
func BenchmarkTPCHSuite(b *testing.B) {
	cat := benchCatalog(b)
	for _, eng := range []tpch.Engine{tpch.EngineVectorized, tpch.EngineTuple, tpch.EngineMaterialized} {
		for _, q := range tpch.SQLSuite() {
			b.Run(eng.String()+"/"+q.Name, func(b *testing.B) {
				matengine.ResetMatBytes()
				for i := 0; i < b.N; i++ {
					if _, _, err := tpch.RunQuery(cat, q, tpch.RunOptions{Engine: eng}); err != nil {
						b.Fatal(err)
					}
				}
				if eng == tpch.EngineMaterialized {
					b.ReportMetric(float64(matengine.MatBytes())/float64(b.N), "interm-bytes/op")
				}
			})
		}
	}
}

// --- F1: vector-size sweep (tuple ↔ vector ↔ materialize U-curve) ---

func BenchmarkF1VectorSizeSweep(b *testing.B) {
	cat := benchCatalog(b)
	q, _ := tpch.FindSQL("Q1")
	for _, size := range []int{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144} {
		b.Run(fmt.Sprintf("vecsize=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := tpch.RunQuery(cat, q, tpch.RunOptions{Engine: tpch.EngineVectorized, VecSize: size}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T2: compression codecs (PFOR paper ref [2]) ---

func benchI64Data() []int64 {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 64*1024)
	for i := range vals {
		vals[i] = int64(rng.Intn(4096)) // small domain, PFOR-friendly
	}
	return vals
}

// encodedI64 returns EncodeI64's chunk of vals, which must pick want.
func encodedI64(b *testing.B, vals []int64, want compress.Codec) []byte {
	data, codec := compress.EncodeI64(vals)
	if codec != want {
		b.Fatalf("coded %v, want %v", codec, want)
	}
	return data
}

// benchDecompressI64 decodes data, the chunk of vals, b.N times.
func benchDecompressI64(b *testing.B, vals []int64, data []byte) {
	buf := make([]int64, len(vals))
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compress.DecompressI64(buf, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(vals)*8)/float64(len(data)), "ratio")
}

// BenchmarkT2CompressPFOR times EncodeI64 on a chunk it codes as PFOR:
// the PFOR and PFOR-DELTA encodes it compares (the chunk has no runs for
// RLE).
func BenchmarkT2CompressPFOR(b *testing.B) {
	vals := benchI64Data()
	encodedI64(b, vals, compress.CodecPFOR)
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress.EncodeI64(vals)
	}
}

func BenchmarkT2DecompressPFOR(b *testing.B) {
	vals := benchI64Data()
	benchDecompressI64(b, vals, encodedI64(b, vals, compress.CodecPFOR))
}

func BenchmarkT2DecompressPFORDelta(b *testing.B) {
	vals := make([]int64, 64*1024)
	for i := range vals {
		vals[i] = int64(i) * 3
	}
	benchDecompressI64(b, vals, encodedI64(b, vals, compress.CodecPFORDelta))
}

// BenchmarkT2DecompressRLE decodes runs of 512 rows that alternate
// between 0 and 1 000: RLE codes each run's value in fewer bytes than
// PFOR-DELTA codes the jump between runs.
func BenchmarkT2DecompressRLE(b *testing.B) {
	vals := make([]int64, 64*1024)
	for i := range vals {
		vals[i] = int64(i / 512 % 2 * 1000)
	}
	benchDecompressI64(b, vals, encodedI64(b, vals, compress.CodecRLE))
}

func BenchmarkT2DecompressDict(b *testing.B) {
	words := []string{"RAIL", "AIR", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}
	vals := make([]string, 64*1024)
	for i := range vals {
		vals[i] = words[i%len(words)]
	}
	data, codec, err := compress.EncodeStr(vals)
	if err != nil || codec != compress.CodecDict {
		b.Fatalf("coded %v (err %v)", codec, err)
	}
	buf := make([]string, len(vals))
	plain := 0 // each string's bytes and a separator
	for _, s := range vals {
		plain += len(s) + 1
	}
	b.SetBytes(int64(plain))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compress.DecompressStr(buf, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plain)/float64(len(data)), "ratio")
}

// BenchmarkT2DecompressPlainI64 decodes a chunk of full-width random
// values, which no codec codes smaller than plain.
func BenchmarkT2DecompressPlainI64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 64*1024)
	for i := range vals {
		vals[i] = int64(rng.Uint64())
	}
	benchDecompressI64(b, vals, encodedI64(b, vals, compress.CodecPlainI64))
}

// --- T3: PDT updates and merge overhead (paper ref [5]) ---

func pdtBenchTable(b *testing.B, rows int) *storage.Table {
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindF64},
	)
	bl := storage.NewBuilder("t", schema, 8192)
	for i := 0; i < rows; i++ {
		if err := bl.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), vtypes.F64Value(float64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	t, err := bl.Finish()
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func BenchmarkT3PDTUpdates(b *testing.B) {
	tbl := pdtBenchTable(b, 100_000)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pdt.New(tbl.Schema(), tbl.Rows())
		for k := 0; k < 10_000; k++ {
			rid := rng.Int63n(p.VisibleRows())
			switch k % 3 {
			case 0:
				if err := p.Insert(rid, vtypes.Row{vtypes.I64Value(int64(k)), vtypes.F64Value(1)}); err != nil {
					b.Fatal(err)
				}
			case 1:
				if err := p.Delete(rid); err != nil {
					b.Fatal(err)
				}
			default:
				if err := p.Modify(rid, 1, vtypes.F64Value(2)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(10_000*b.N)/b.Elapsed().Seconds(), "updates/s")
}

// scanThrough drains a value-column-only scan merged with p. The query
// needs only column v; the positional merge never touches the key
// column — the PDT advantage the paper describes.
func scanThrough(b *testing.B, tbl *storage.Table, p *pdt.PDT) {
	layers := []*pdt.PDT(nil)
	if p != nil {
		layers = append(layers, p)
	}
	sc := core.NewScan(tbl, []int{1}, core.ScanOpts{Layers: layers})
	n, err := core.Drain(sc)
	if err != nil || n == 0 {
		b.Fatalf("scan drained %d rows, err %v", n, err)
	}
}

func BenchmarkT3ScanClean(b *testing.B) {
	tbl := pdtBenchTable(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanThrough(b, tbl, nil)
	}
}

func BenchmarkT3ScanWithPDTMerge(b *testing.B) {
	tbl := pdtBenchTable(b, 200_000)
	p := pdt.New(tbl.Schema(), tbl.Rows())
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 2000; k++ { // 1% of rows touched
		if err := p.Modify(rng.Int63n(p.VisibleRows()), 1, vtypes.F64Value(9)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanThrough(b, tbl, p)
	}
}

// BenchmarkT3ValueBasedMerge is the comparator the paper argues against:
// a value-based delta store must scan the *key* column as well (even
// though the query needs only v) and probe the delta map per tuple,
// instead of positionally aligning runs.
func BenchmarkT3ValueBasedMerge(b *testing.B) {
	tbl := pdtBenchTable(b, 200_000)
	rng := rand.New(rand.NewSource(4))
	updates := make(map[int64]float64, 2000)
	for k := 0; k < 2000; k++ {
		updates[rng.Int63n(tbl.Rows())] = 9
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := storage.NewScanner(tbl, []int{0, 1}, nil, nil, 1024)
		out := make([]float64, 1024)
		var total int64
		for {
			vecs, n, err := sc.Next()
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
			keys := vecs[0].I64
			vals := vecs[1].F64
			for r := 0; r < n; r++ {
				v := vals[r]
				if nv, ok := updates[keys[r]]; ok {
					v = nv
				}
				out[r] = v
				total++
			}
		}
		if total == 0 {
			b.Fatal("no rows")
		}
	}
}

// --- T5: NULL decomposition vs per-row null checking (§I-B) ---

// nullBenchVectors decodes the nullable column of a 200 000-row table,
// every tenth row NULL, into vectors once, so that the T5 benchmarks time
// the two ways of handling NULLs and not chunk decode.
func nullBenchVectors(b *testing.B) []*vector.Vector {
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindI64, Nullable: true},
	)
	bl := storage.NewBuilder("nulls", schema, 8192)
	for i := 0; i < 200_000; i++ {
		v := vtypes.I64Value(int64(i % 1000))
		if i%10 == 0 {
			v = vtypes.NullValue(vtypes.KindI64)
		}
		if err := bl.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), v}); err != nil {
			b.Fatal(err)
		}
	}
	t, err := bl.Finish()
	if err != nil {
		b.Fatal(err)
	}
	var out []*vector.Vector
	sc := storage.NewScanner(t, []int{1}, nil, nil, 1024)
	for {
		vecs, n, err := sc.Next()
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out = append(out, vector.NewCopy(vecs[0], nil, n))
	}
}

// BenchmarkT5RewrittenNulls: the rewriter's decomposition — indicator
// kernel then value kernel, both branch-free vector loops.
func BenchmarkT5RewrittenNulls(b *testing.B) {
	vecs := nullBenchVectors(b)
	sel, sel2 := make([]int32, 1024), make([]int32, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count int64
		for _, v := range vecs {
			n := len(v.I64)
			// sel_isnotnull then sel_gt, chained.
			k := 0
			if v.Nulls != nil {
				for r := 0; r < n; r++ {
					if !v.Nulls[r] {
						sel[k] = int32(r)
						k++
					}
				}
			} else {
				for r := 0; r < n; r++ {
					sel[r] = int32(r)
				}
				k = n
			}
			k2 := 0
			for _, r := range sel[:k] {
				if v.I64[r] > 500 {
					sel2[k2] = r
					k2++
				}
			}
			count += int64(k2)
		}
		if count == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkT5NullAwareKernel: the design the rewrite avoids — one kernel
// that checks the indicator per row inside the comparison loop.
func BenchmarkT5NullAwareKernel(b *testing.B) {
	vecs := nullBenchVectors(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count int64
		for _, v := range vecs {
			for r := range v.I64 {
				var isNull bool
				if v.Nulls != nil {
					isNull = v.Nulls[r]
				}
				if !isNull && v.I64[r] > 500 {
					count++
				}
			}
		}
		if count == 0 {
			b.Fatal("no matches")
		}
	}
}

// --- T6: hot (cached) vs cold (decode every chunk) scans (§I-C RAM note) ---

func BenchmarkT6HotScan(b *testing.B) {
	tbl := pdtBenchTable(b, 200_000)
	m := bufmgr.New(0) // everything stays cached
	// Warm the cache.
	sc := core.NewScan(tbl, []int{0, 1}, core.ScanOpts{Fetch: m})
	if _, err := core.Drain(sc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := core.NewScan(tbl, []int{0, 1}, core.ScanOpts{Fetch: m})
		if _, err := core.Drain(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT6ColdScan scans through a pool that holds nothing, so every
// chunk is decoded from the compressed image as it is read (what
// bench/'s q1_cold statement measures).
func BenchmarkT6ColdScan(b *testing.B) {
	tbl := pdtBenchTable(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := bufmgr.New(1) // nothing stays cached
		sc := core.NewScan(tbl, []int{0, 1}, core.ScanOpts{Fetch: m})
		if _, err := core.Drain(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F2: multi-core scaling through the parallel rewriter ---

func BenchmarkF2ParallelScaling(b *testing.B) {
	maxw := runtime.GOMAXPROCS(0)
	for _, q := range []string{"Q1", "Q6"} {
		for w := 1; w <= maxw; w *= 2 {
			b.Run(fmt.Sprintf("%s/workers=%d", q, w), func(b *testing.B) {
				runSuiteQuery(b, q, tpch.EngineVectorized, w)
			})
		}
	}
}

// --- prepared statements vs ad-hoc planning (plan cache) ---

// BenchmarkPreparedVsAdHoc measures what the plan cache buys on the
// served-workload shape: a repeated parametrized point SELECT.
//
//	AdHoc         — cache disabled: lex → parse → plan → simplify →
//	                parallelize → compile → execute, every request.
//	Prepared      — cached template + parameter binding per request.
//	ParsePlanOnly — just the front half (what the cache amortizes away).
//
// The AdHoc run also reports plan_pct: the share of ad-hoc latency
// spent in parse+plan, i.e. the fraction the paper's amortization
// argument says must not be paid per query.
// shortJoinAgg is a short parametrized statement over small hot tables:
// a join, IN, BETWEEN, GROUP BY and ORDER BY over 256 + 8 rows, of which
// a few dozen reach the aggregate and four groups leave it.
const shortJoinAgg = `SELECT d.region AS region, SUM(p.v) total FROM pts p
	JOIN dim d ON p.g = d.id
	WHERE p.k BETWEEN ? AND ? AND d.id IN ($3, $4)
	GROUP BY d.region ORDER BY region`

// newShortJoinAggDB makes shortJoinAgg's tables in memory, inserted, so
// their rows live in PDTs over empty stable images.
func newShortJoinAggDB(b *testing.B) *DB {
	const rows = 256
	db := OpenMemory()
	if _, err := db.Exec(`CREATE TABLE pts (k BIGINT, g BIGINT, v DOUBLE)`); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE dim (id BIGINT, region VARCHAR)`); err != nil {
		b.Fatal(err)
	}
	stmt := "INSERT INTO pts VALUES "
	for i := 0; i < rows; i++ {
		if i > 0 {
			stmt += ","
		}
		stmt += fmt.Sprintf("(%d, %d, %d.5)", i, i%8, i%100)
	}
	if _, err := db.Exec(stmt); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO dim VALUES (0,'n'), (1,'s'), (2,'e'), (3,'w'), (4,'ne'), (5,'nw'), (6,'se'), (7,'sw')`); err != nil {
		b.Fatal(err)
	}
	return db
}

// shortJoinAggArgs are the i-th request's parameters.
func shortJoinAggArgs(i int) []any {
	lo := int64(i % 128)
	return []any{lo, lo + 64, int64(i % 8), int64((i + 3) % 8)}
}

// benchPrepared runs shortJoinAgg prepared over db, b.N times, and fails
// if a request re-planned.
func benchPrepared(b *testing.B, db *DB) {
	stmt, err := db.Prepare(shortJoinAgg)
	if err != nil {
		b.Fatal(err)
	}
	base := db.PlanCacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Query(shortJoinAggArgs(i)...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := db.PlanCacheStats(); st.Misses != base.Misses {
		b.Fatalf("prepared path re-planned: %+v vs %+v", st, base)
	}
}

// BenchmarkShortJoinAggStable is BenchmarkPreparedVsAdHoc/Prepared over
// the same rows checkpointed into stable images: no PDT is merged, so the
// difference between the two is the merge's cost, and what is left here
// the operators' and the front end's.
func BenchmarkShortJoinAggStable(b *testing.B) {
	db := newShortJoinAggDB(b)
	for _, table := range []string{"pts", "dim"} {
		if err := db.Checkpoint(table); err != nil {
			b.Fatal(err)
		}
	}
	benchPrepared(b, db)
}

func BenchmarkPreparedVsAdHoc(b *testing.B) {
	// The workload shape the cache targets: a short parametrized
	// point/range query over small hot tables, where the SQL front end
	// (lex → parse → name resolution → plan → simplify → parallelize)
	// is a large share of request latency. The join + IN + BETWEEN give
	// the planner realistic work (pushdown, join keys, predicate
	// lowering) without making execution the bottleneck.
	b.Run("AdHoc", func(b *testing.B) {
		db := newShortJoinAggDB(b)
		db.SetPlanCacheCapacity(0) // every request re-plans
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryArgs(shortJoinAgg, shortJoinAggArgs(i)...); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		// Estimate the parse+plan share: Explain runs exactly the
		// front half (parse → plan → simplify → parallelize).
		const probes = 200
		start := time.Now()
		for i := 0; i < probes; i++ {
			if _, err := db.Explain(shortJoinAgg); err != nil {
				b.Fatal(err)
			}
		}
		planPerOp := time.Since(start) / probes
		adhocPerOp := b.Elapsed() / time.Duration(b.N)
		if adhocPerOp > 0 {
			b.ReportMetric(100*float64(planPerOp)/float64(adhocPerOp), "plan_pct")
		}
	})

	b.Run("Prepared", func(b *testing.B) { benchPrepared(b, newShortJoinAggDB(b)) })

	b.Run("ParsePlanOnly", func(b *testing.B) {
		db := newShortJoinAggDB(b)
		db.SetPlanCacheCapacity(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Explain(shortJoinAgg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- end-to-end SQL sanity bench over the facade ---

func BenchmarkSQLEndToEnd(b *testing.B) {
	db := OpenMemory()
	if _, err := db.Exec(`CREATE TABLE s (k BIGINT, v DOUBLE)`); err != nil {
		b.Fatal(err)
	}
	for chunk := 0; chunk < 10; chunk++ {
		stmt := "INSERT INTO s VALUES "
		for i := 0; i < 500; i++ {
			if i > 0 {
				stmt += ","
			}
			stmt += fmt.Sprintf("(%d, %d.5)", chunk*500+i, i%100)
		}
		if _, err := db.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT k / 100 AS bucket, SUM(v) s, COUNT(*) n FROM s GROUP BY k / 100`); err != nil {
			b.Fatal(err)
		}
	}
	_ = xcompile.Options{}
}

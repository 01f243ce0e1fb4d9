// Command vwbench reproduces the paper's experiments and prints
// paper-style tables. Run all experiments or one by id:
//
//	vwbench            # everything (SF 0.01 default)
//	vwbench -exp t1    # just the TPC-H power/throughput table
//	vwbench -sf 0.05   # bigger scale factor
//
// Experiment ids: t1 c1 c2 f1 t2 t3 t4 t5 t6 f2, plus `cluster`, which
// benchmarks the distributed exchange — 1-node vs N-shard TPC-H plus
// failover recovery latency — into BENCH_cluster.json
// (-cluster-out / -cluster-sf / -cluster-shards).
// The repository's performance trajectory is not measured here: that is
// bench/ (bash bench/run.sh, see bench/README.md).
//
// The TPC-H database itself is built through the public ingest surface
// (CREATE TABLE + DB.LoadBatch via internal/tpchdb), so every
// experiment measures tables a user could actually load.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/bufmgr"
	"vectorwise/internal/catalog"
	"vectorwise/internal/compress"
	"vectorwise/internal/core"
	"vectorwise/internal/matengine"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/tpch"
	"vectorwise/internal/tpchdb"
	"vectorwise/internal/vtypes"
)

// experiment is one table or figure of the harness, selected by -exp.
type experiment struct {
	id  string
	run func()
}

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	exp := flag.String("exp", "all", "experiment id (cluster t1 c1 c2 f1 t2 t3 t4 t5 t6 f2 or all)")
	clusterOut := flag.String("cluster-out", "BENCH_cluster.json", "output path for the cluster experiment's JSON artifact")
	clusterSF := flag.Float64("cluster-sf", 0.05, "TPC-H scale factor for the cluster experiment")
	clusterShards := flag.Int("cluster-shards", 3, "shard count for the cluster experiment")
	flag.Parse()

	var db *vectorwise.DB
	var cat *catalog.Catalog
	experiments := []experiment{
		{"cluster", func() { expCluster(*clusterSF, *clusterShards, *clusterOut) }},
		{"t1", func() { expT1(cat, *sf) }},
		{"c1", func() { expC1(cat, db.BufferManager()) }},
		{"c2", func() { expC2(cat, db.BufferManager()) }},
		{"f1", func() { expF1(cat, db.BufferManager()) }},
		{"t2", expT2},
		{"t3", expT3},
		{"t4", expT4},
		{"t5", expT5},
		{"t6", expT6},
		{"f2", func() { expF2(cat) }},
	}
	want := func(id string) bool { return *exp == "all" || strings.EqualFold(*exp, id) }
	// An id nothing answers to is an error, not an empty run.
	if !slices.ContainsFunc(experiments, func(e experiment) bool { return want(e.id) }) {
		fatal(fmt.Errorf("unknown experiment id %q (see -h)", *exp))
	}

	fmt.Printf("vectorwise experiment harness — SF=%g, GOMAXPROCS=%d\n\n", *sf, runtime.GOMAXPROCS(0))
	fmt.Println("loading TPC-H through the public ingest path (CREATE TABLE + LoadBatch) ...")
	db = vectorwise.OpenMemory()
	loadStats, err := tpchdb.Load(db, *sf)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d rows in %v (%.0f rows/s)\n", loadStats.Rows,
		loadStats.Elapsed.Round(time.Millisecond),
		float64(loadStats.Rows)/loadStats.Elapsed.Seconds())
	cat = db.Catalog()
	fmt.Println("validating query suite across engines ...")
	if err := tpch.Validate(cat); err != nil {
		fatal(err)
	}
	fmt.Print("validation OK: vectorized = tuple = materialized = parallel\n\n")

	for _, e := range experiments {
		if want(e.id) {
			e.run()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vwbench:", err)
	os.Exit(1)
}

// expT1 — the paper's §I-C table: QphH-style scores per engine.
func expT1(cat *catalog.Catalog, sf float64) {
	fmt.Println("== T1: TPC-H power/throughput (paper §I-C audited results) ==")
	fmt.Printf("%-14s %12s %12s %12s %14s\n", "engine", "power-run", "QphPower", "QphTput", "QphH-analog")
	streams := runtime.GOMAXPROCS(0)
	for _, eng := range []tpch.Engine{tpch.EngineVectorized, tpch.EngineTuple, tpch.EngineMaterialized} {
		par := 0
		if eng == tpch.EngineVectorized {
			par = runtime.GOMAXPROCS(0)
		}
		p, err := tpch.PowerRun(cat, sf, tpch.RunOptions{Engine: eng, Parallel: par})
		if err != nil {
			fatal(err)
		}
		tp, err := tpch.ThroughputRun(cat, sf, streams, tpch.RunOptions{Engine: eng, Parallel: 0})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s %12v %12.1f %12.1f %14.1f\n",
			eng, p.Total.Round(time.Millisecond), p.QphPower, tp.QphThroughput, tpch.QphH(p, tp))
	}
	fmt.Println()
}

// expC1 — per-query speedups vectorized vs tuple (">10×" claim).
func expC1(cat *catalog.Catalog, fetch storage.ChunkFetcher) {
	fmt.Println("== C1: vectorized vs tuple-at-a-time (raw processing power) ==")
	fmt.Printf("%-6s %12s %12s %9s\n", "query", "vectorized", "tuple", "speedup")
	for _, q := range tpch.SQLSuite() {
		_, dv, err := tpch.RunQuery(cat, q, tpch.RunOptions{Engine: tpch.EngineVectorized, Fetch: fetch})
		if err != nil {
			fatal(err)
		}
		_, dt, err := tpch.RunQuery(cat, q, tpch.RunOptions{Engine: tpch.EngineTuple})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-6s %12v %12v %8.1fx\n", q.Name,
			dv.Round(time.Microsecond), dt.Round(time.Microsecond), dt.Seconds()/dv.Seconds())
	}
	fmt.Println()
}

// expC2 — vectorized vs full materialization, with intermediate volume.
func expC2(cat *catalog.Catalog, fetch storage.ChunkFetcher) {
	fmt.Println("== C2: vectorized vs column-at-a-time materialization ==")
	fmt.Printf("%-6s %12s %12s %9s %14s\n", "query", "vectorized", "materialized", "speedup", "interm-bytes")
	for _, q := range tpch.SQLSuite() {
		_, dv, err := tpch.RunQuery(cat, q, tpch.RunOptions{Engine: tpch.EngineVectorized, Fetch: fetch})
		if err != nil {
			fatal(err)
		}
		matengine.ResetMatBytes()
		_, dm, err := tpch.RunQuery(cat, q, tpch.RunOptions{Engine: tpch.EngineMaterialized})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-6s %12v %12v %8.1fx %14d\n", q.Name,
			dv.Round(time.Microsecond), dm.Round(time.Microsecond),
			dm.Seconds()/dv.Seconds(), matengine.MatBytes())
	}
	fmt.Println()
}

// expF1 — the classic vector-size U-curve on Q1.
func expF1(cat *catalog.Catalog, fetch storage.ChunkFetcher) {
	fmt.Println("== F1: runtime vs vector size (Q1) ==")
	fmt.Printf("%-10s %12s\n", "vecsize", "runtime")
	q, _ := tpch.FindSQL("Q1")
	for _, size := range []int{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144} {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			_, d, err := tpch.RunQuery(cat, q, tpch.RunOptions{Engine: tpch.EngineVectorized, VecSize: size, Fetch: fetch})
			if err != nil {
				fatal(err)
			}
			if d < best {
				best = d
			}
		}
		fmt.Printf("%-10d %12v\n", size, best.Round(time.Microsecond))
	}
	fmt.Println()
}

// expT2 — compression ratios and decompression bandwidth.
func expT2() {
	fmt.Println("== T2: compression (PFOR family) ==")
	fmt.Printf("%-12s %8s %16s\n", "codec", "ratio", "decompress-GB/s")
	n := 1 << 20
	rng := rand.New(rand.NewSource(5))
	small := make([]int64, n)
	sorted := make([]int64, n)
	runs := make([]int64, n)
	for i := range small {
		small[i] = int64(rng.Intn(4096))
		sorted[i] = int64(i) * 3
		runs[i] = int64(i / 2048)
	}
	words := []string{"RAIL", "AIR", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}
	strs := make([]string, n)
	for i := range strs {
		strs[i] = words[i%len(words)]
	}
	benchI64 := func(name string, vals []int64, codec compress.Codec) {
		data, err := compress.CompressI64(vals, codec)
		if err != nil {
			fatal(err)
		}
		buf := make([]int64, n)
		start := time.Now()
		reps := 20
		for r := 0; r < reps; r++ {
			if _, err := compress.DecompressI64(buf, data); err != nil {
				fatal(err)
			}
		}
		el := time.Since(start)
		gbs := float64(n*8*reps) / el.Seconds() / 1e9
		fmt.Printf("%-12s %7.1fx %16.2f\n", name, float64(n*8)/float64(len(data)), gbs)
	}
	benchI64("plain", small, compress.CodecPlainI64)
	benchI64("pfor", small, compress.CodecPFOR)
	benchI64("pfor-delta", sorted, compress.CodecPFORDelta)
	benchI64("rle", runs, compress.CodecRLE)
	data, _ := compress.CompressStr(strs, compress.CodecDict)
	buf := make([]string, n)
	start := time.Now()
	for r := 0; r < 5; r++ {
		if _, err := compress.DecompressStr(buf, data); err != nil {
			fatal(err)
		}
	}
	plainBytes := 0
	for _, s := range strs {
		plainBytes += len(s) + 1
	}
	fmt.Printf("%-12s %7.1fx %16.2f\n", "pdict",
		float64(plainBytes)/float64(len(data)),
		float64(plainBytes*5)/time.Since(start).Seconds()/1e9)
	fmt.Println()
}

func benchTable(rows int) *storage.Table {
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindF64},
	)
	bl := storage.NewBuilder("t", schema, 8192)
	for i := 0; i < rows; i++ {
		if err := bl.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), vtypes.F64Value(float64(i))}); err != nil {
			panic(err)
		}
	}
	t, err := bl.Finish()
	if err != nil {
		panic(err)
	}
	return t
}

// expT3 — PDT update throughput and merge overhead.
func expT3() {
	fmt.Println("== T3: Positional Delta Trees ==")
	tbl := benchTable(400_000)
	// Update throughput.
	rng := rand.New(rand.NewSource(3))
	p := pdt.New(tbl.Schema(), tbl.Rows())
	nOps := 50_000
	start := time.Now()
	for k := 0; k < nOps; k++ {
		rid := rng.Int63n(p.VisibleRows())
		switch k % 3 {
		case 0:
			_ = p.Insert(rid, vtypes.Row{vtypes.I64Value(int64(k)), vtypes.F64Value(1)})
		case 1:
			_ = p.Delete(rid)
		default:
			_ = p.Modify(rid, 1, vtypes.F64Value(2))
		}
	}
	fmt.Printf("%-28s %12.0f ops/s\n", "PDT random updates", float64(nOps)/time.Since(start).Seconds())

	// The query reads only column v: the positional merge never touches
	// the key column, a value-based delta store must scan it to align.
	scan := func(layers []*pdt.PDT) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			sc := core.NewScan(tbl, []int{1}, core.ScanOpts{Layers: layers})
			start := time.Now()
			if _, err := core.Drain(sc); err != nil {
				fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	clean := scan(nil)
	// 1% modified.
	p2 := pdt.New(tbl.Schema(), tbl.Rows())
	for k := 0; k < 4000; k++ {
		_ = p2.Modify(rng.Int63n(p2.VisibleRows()), 1, vtypes.F64Value(9))
	}
	merged := scan([]*pdt.PDT{p2})

	// Value-based comparator: key-aligned delta map.
	updates := make(map[int64]float64, 4000)
	for k := 0; k < 4000; k++ {
		updates[rng.Int63n(tbl.Rows())] = 9
	}
	valueBased := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		sc := storage.NewScanner(tbl, []int{0, 1}, storage.DecodedFetcher{}, nil, 1024)
		out := make([]float64, 1024)
		start := time.Now()
		for {
			vecs, _, n, err := sc.Next()
			if err != nil {
				fatal(err)
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
			}
		}
		if d := time.Since(start); d < valueBased {
			valueBased = d
		}
	}
	fmt.Printf("%-28s %12v\n", "clean scan (400k rows)", clean.Round(time.Microsecond))
	fmt.Printf("%-28s %12v  (overhead %.0f%%)\n", "scan + PDT merge (1% mods)",
		merged.Round(time.Microsecond), 100*(merged.Seconds()-clean.Seconds())/clean.Seconds())
	fmt.Printf("%-28s %12v  (%.1fx slower than PDT)\n", "value-based delta merge",
		valueBased.Round(time.Microsecond), valueBased.Seconds()/merged.Seconds())
	fmt.Println()
}

// expT4 — cooperative vs normal scan policies under a tight cache.
func expT4() {
	fmt.Println("== T4: cooperative scans (2 staggered concurrent scans) ==")
	tbl := benchTable(400_000)
	run := func(policy bufmgr.ScanPolicy) (time.Duration, int64) {
		m := bufmgr.New(1<<20, nil)
		h1 := m.StartScan(tbl, []int{0, 1}, policy)
		h2 := m.StartScan(tbl, []int{0, 1}, policy)
		defer h1.Close()
		defer h2.Close()
		start := time.Now()
		for k := 0; k < tbl.Groups()/3; k++ {
			if _, _, err := h1.NextGroup(); err != nil {
				fatal(err)
			}
		}
		d1, d2 := false, false
		for !d1 || !d2 {
			if !d1 {
				_, ok, err := h1.NextGroup()
				if err != nil {
					fatal(err)
				}
				d1 = !ok
			}
			if !d2 {
				_, ok, err := h2.NextGroup()
				if err != nil {
					fatal(err)
				}
				d2 = !ok
			}
		}
		return time.Since(start), m.Stats().IOChunks
	}
	dn, ion := run(bufmgr.PolicyNormal)
	dc, ioc := run(bufmgr.PolicyCooperative)
	fmt.Printf("%-14s %12s %14s\n", "policy", "elapsed", "chunk loads")
	fmt.Printf("%-14s %12v %14d\n", "normal/LRU", dn.Round(time.Microsecond), ion)
	fmt.Printf("%-14s %12v %14d\n", "cooperative", dc.Round(time.Microsecond), ioc)
	fmt.Println()
}

// expT5 — NULL decomposition rewrite vs null-aware kernels.
func expT5() {
	fmt.Println("== T5: NULL decomposition (rewriter) vs NULL-aware kernel ==")
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindI64, Nullable: true},
	)
	bl := storage.NewBuilder("nulls", schema, 8192)
	for i := 0; i < 400_000; i++ {
		v := vtypes.I64Value(int64(i % 1000))
		if i%10 == 0 {
			v = vtypes.NullValue(vtypes.KindI64)
		}
		if err := bl.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), v}); err != nil {
			fatal(err)
		}
	}
	tbl, err := bl.Finish()
	if err != nil {
		fatal(err)
	}
	timeIt := func(nullAware bool) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			sc := storage.NewScanner(tbl, []int{1}, nil, nil, 1024)
			sel := make([]int32, 1024)
			sel2 := make([]int32, 1024)
			start := time.Now()
			var count int64
			for {
				vecs, _, n, err := sc.Next()
				if err != nil {
					fatal(err)
				}
				if n == 0 {
					break
				}
				v := vecs[0]
				if nullAware {
					for r := 0; r < n; r++ {
						var isNull bool
						if v.Nulls != nil {
							isNull = v.Nulls[r]
						}
						if !isNull && v.I64[r] > 500 {
							count++
						}
					}
					continue
				}
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
				fatal(fmt.Errorf("no matches"))
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	fmt.Printf("%-28s %12v\n", "rewritten (two kernels)", timeIt(false).Round(time.Microsecond))
	fmt.Printf("%-28s %12v\n", "null-aware single kernel", timeIt(true).Round(time.Microsecond))
	fmt.Println()
}

// expT6 — fully cached vs bandwidth-throttled cold scans.
func expT6() {
	fmt.Println("== T6: RAM-resident vs cold I/O (64 MB/s simulated disk) ==")
	tbl := benchTable(400_000)
	hot := bufmgr.New(0, nil)
	sc := core.NewScan(tbl, []int{0, 1}, core.ScanOpts{Fetch: hot})
	if _, err := core.Drain(sc); err != nil {
		fatal(err)
	}
	timeScan := func(m *bufmgr.Manager) time.Duration {
		sc := core.NewScan(tbl, []int{0, 1}, core.ScanOpts{Fetch: m})
		start := time.Now()
		if _, err := core.Drain(sc); err != nil {
			fatal(err)
		}
		return time.Since(start)
	}
	hd := timeScan(hot)
	cold := bufmgr.New(1, &bufmgr.SimDisk{BytesPerSec: 64 << 20})
	cd := timeScan(cold)
	fmt.Printf("%-28s %12v\n", "hot (all cached)", hd.Round(time.Microsecond))
	fmt.Printf("%-28s %12v  (%.1fx slower)\n", "cold (throttled disk)", cd.Round(time.Microsecond), cd.Seconds()/hd.Seconds())
	fmt.Println()
}

// expF2 — parallel scaling on the power queries.
func expF2(cat *catalog.Catalog) {
	fmt.Println("== F2: multi-core scaling (parallel rewriter, Q1/Q6) ==")
	fmt.Printf("%-8s %12s %12s\n", "workers", "Q1", "Q6")
	maxw := runtime.GOMAXPROCS(0)
	base := map[string]time.Duration{}
	for w := 1; w <= maxw; w *= 2 {
		times := map[string]time.Duration{}
		for _, name := range []string{"Q1", "Q6"} {
			q, _ := tpch.FindSQL(name)
			best := time.Duration(1 << 62)
			for rep := 0; rep < 3; rep++ {
				_, d, err := tpch.RunQuery(cat, q, tpch.RunOptions{Engine: tpch.EngineVectorized, Parallel: w})
				if err != nil {
					fatal(err)
				}
				if d < best {
					best = d
				}
			}
			times[name] = best
			if w == 1 {
				base[name] = best
			}
		}
		fmt.Printf("%-8d %12v %12v  (speedup %.2fx / %.2fx)\n", w,
			times["Q1"].Round(time.Microsecond), times["Q6"].Round(time.Microsecond),
			base["Q1"].Seconds()/times["Q1"].Seconds(), base["Q6"].Seconds()/times["Q6"].Seconds())
	}
	fmt.Println()
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/algebra"
	"vectorwise/internal/core"
	"vectorwise/internal/server"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/wal"
)

// The traced run. End-to-end metrics never come from here: a traced run
// measures a few ordinary rounds per workload (for stmt.<kind>.ms and the
// counters), then replays statements through the staged driver, runs the
// layer probes, and reads the counters the layers expose. Everything is
// observed from outside, around calls into exported functions.

// layerTrace accumulates one traced run over all workloads.
type layerTrace struct {
	cfg config
	tr  *tracer
	m   metrics
	// overhead holds, per replayed embedded kind, staged time over
	// untraced stmt.<kind>.ms minus one.
	overhead  []float64
	attempted int64
	failed    int64
	firstErr  error
	calib     []float64
	disturbed []float64
}

// traceAll runs the four workloads traced, one after the other, and
// merges their per-layer metrics into one list.
func traceAll(cfg config, spansPath string) (report, error) {
	if cfg.rounds == 0 {
		// Four set-ups share one run's time, so each workload gets two
		// measured rounds here, not a share of -seconds.
		cfg.rounds = 2
	}
	lt := &layerTrace{cfg: cfg, tr: newTracer(), m: metrics{}}
	for _, name := range workloadNames {
		if err := lt.one(newWorkload(name, cfg)); err != nil {
			return report{}, err
		}
	}
	lt.m.set("trace.overhead_frac", mean(lt.overhead), "ratio")
	lt.m.set("machine.calib_ms", minOf(lt.calib), "ms")
	lt.m.set("machine.disturbed_frac", mean(lt.disturbed), "ratio")
	if spansPath != "" {
		if err := lt.tr.write(spansPath); err != nil {
			return report{}, err
		}
	}
	rep := report{Trace: true, CalibMs: [2]float64{minOf(lt.calib), median(lt.calib)},
		DisturbedFrac: mean(lt.disturbed),
		Result:        result{Correct: lt.failed == 0, Attempted: lt.attempted, Failed: lt.failed, Metrics: lt.m}}
	if lt.firstErr != nil {
		rep.FirstError = lt.firstErr.Error()
	}
	return rep, nil
}

// one measures a workload's rounds, then runs its layers method while the
// data is still loaded.
func (lt *layerTrace) one(w workload) error {
	defer w.close()
	o, err := measure(w, lt.cfg, func(o *outcome) error {
		for k, v := range o.kindMs() {
			lt.m.set("stmt."+w.kinds()[k]+".ms", v, "ms")
		}
		return w.layers(lt, o)
	})
	if err != nil {
		return err
	}
	if upd, ok := w.(*updateScan); ok {
		// Known only after the post-run restart check.
		lt.m.set("vectorwise.checkpoint_ms", upd.checkpointMs, "ms")
		lt.m.set("vectorwise.reopen_ms", upd.reopenMs, "ms")
	}
	lt.attempted += o.attempted
	lt.failed += o.failed
	if lt.firstErr == nil {
		lt.firstErr = o.firstErr
	}
	for _, r := range o.rounds {
		lt.calib = append(lt.calib, ms(r.calib))
	}
	lt.disturbed = append(lt.disturbed, o.disturbedFrac())
	return nil
}

// reps picks how often to replay a kind: about 200 ms worth, 1 to 5 times.
func reps(stmtMs float64) int { return int(min(max(200/stmtMs, 1), 5)) }

// replayKind replays one embedded kind and records its tracing overhead.
func (lt *layerTrace) replayKind(st *stager, o *outcome, kind int, text string, parallelism int, before func(), args ...any) (staged, error) {
	stmtMs := o.kindMs()[kind]
	ex, err := st.replay(o.w.kinds()[kind], text, parallelism, reps(stmtMs), before, args...)
	if err != nil {
		return ex, fmt.Errorf("replay %s: %w", o.w.kinds()[kind], err)
	}
	lt.overhead = append(lt.overhead, ms(ex.total)/stmtMs-1)
	return ex, nil
}

func (w *scanAgg) layers(lt *layerTrace, o *outcome) error {
	m, c := lt.m, o.counters
	m.set("vectorwise.load_mrows_s", float64(w.load.Rows)/1e6/w.load.Elapsed.Seconds(), "Mrows/s")
	m.set("storage.groups_scanned", c["groups_scanned"], "count")
	m.set("storage.groups_pruned", c["groups_pruned"], "count")
	m.set("storage.pruned_frac", ratio(c["groups_pruned"], c["groups_pruned"]+c["groups_scanned"]), "ratio")
	m.set("bufmgr.hit_frac", ratio(c["buf_hits"], c["buf_hits"]+c["buf_io_chunks"]), "ratio")
	m.set("bufmgr.io_mb", c["buf_io_bytes"]/mb, "MB")
	m.set("bufmgr.evictions", c["buf_evictions"], "count")
	m.set("bufmgr.cached_mb", float64(w.db.BufferManager().CachedBytes())/mb, "MB")
	kms := o.kindMs()
	m.set("core.xchg_speedup", kms[saQ1]/kms[saQ1Par], "ratio")

	st := &stager{tr: lt.tr, db: w.db}
	lo := vtypes.MustParseDate("1995-03-01")
	for _, k := range []struct {
		kind, par int
		text      string
		before    func()
		args      []any
	}{
		{saQ1, 1, sqlQ1, nil, nil}, {saQ6, 1, sqlQ6, nil, nil}, {saLikeStr, 1, sqlLikeStr, nil, nil},
		{saQ6Clustered, 1, sqlQ6Clustered, nil, []any{vtypes.DateValue(lo), vtypes.DateValue(lo + 60)}},
		{saQ1Par, 2, sqlQ1, nil, nil},
		{saQ1Cold, 1, sqlQ1, func() { w.evict() }, nil}, {saQ6Cold, 1, sqlQ6, func() { w.evict() }, nil},
	} {
		if _, err := lt.replayKind(st, o, k.kind, k.text, k.par, k.before, k.args...); err != nil {
			return err
		}
	}

	// Scan rung: Q1's seven columns through core.Scan and the buffer pool,
	// warm (chunks cached) and cold (every chunk decoded again).
	cols := []int{tpch.LQuantity, tpch.LExtendedPrice, tpch.LDiscount, tpch.LTax, tpch.LReturnFlag, tpch.LLineStatus, tpch.LShipDate}
	var scanErr error
	scan := func() {
		if _, err := core.Drain(core.NewScan(w.li, cols, core.ScanOpts{Fetch: w.db.BufferManager()})); err != nil {
			scanErr = err
		}
	}
	scan()
	rows := float64(w.li.Rows()) / 1e6
	m.set("core.scan_mrows_s", rows/bestOf(3, scan).Seconds(), "Mrows/s")
	cold := time.Duration(math.MaxInt64)
	for i := 0; i < 2; i++ {
		w.evict()
		cold = min(cold, bestOf(1, scan))
	}
	m.set("core.scan_cold_mrows_s", rows/cold.Seconds(), "Mrows/s")
	if scanErr != nil {
		return scanErr
	}

	twin, err := w.db.Catalog().Get("lineitem_by_date")
	if err != nil {
		return err
	}
	if err := storageProbes(m, w.li, twin.Table); err != nil {
		return err
	}
	li, err := readLineitem(w.li)
	if err != nil {
		return err
	}
	primitiveProbes(li, m)
	return exprProbes(li, m)
}

func (w *joinSort) layers(lt *layerTrace, o *outcome) error {
	m := lt.m
	st := &stager{tr: lt.tr, db: w.db}
	texts := fixedTexts[sfLarge]
	stage := map[string]time.Duration{}
	var total, joinBuild, aggProbe time.Duration
	var rows, batches int64
	slotsMax, probeMax := 0, 0
	for k, name := range joinSortKinds {
		ex, err := lt.replayKind(st, o, k, texts[name], 1, nil)
		if err != nil {
			return err
		}
		m.set("stmt."+name+".alloc_mb", ex.allocMB, "MB")
		for _, s := range coreStages {
			stage[s] += ex.stage[s]
		}
		total += ex.total
		rows, batches = rows+ex.rows, batches+ex.batches
		for _, h := range ex.hash {
			if h.Op == "join" {
				joinBuild += time.Duration(h.PhaseNs)
			} else {
				aggProbe += time.Duration(h.PhaseNs)
			}
			slotsMax, probeMax = max(slotsMax, h.Slots), max(probeMax, h.ProbeMax)
		}
		if name == "sort_full" {
			// The sort runs inside Open and the first Next (stop-and-go).
			sortTime := ex.stage[stOpen] + ex.stage[stFirst]
			m.set("core.sort_mrows_s", float64(ex.rows)/1e6/sortTime.Seconds(), "Mrows/s")
		}
	}
	// Stage times are means per statement over the eight kinds.
	n := time.Duration(len(joinSortKinds))
	var exec time.Duration
	for _, s := range coreStages {
		m.set(s+"_ms", ms(stage[s]/n), "ms")
		exec += stage[s]
	}
	m.set("core.exec_share", float64(exec)/float64(total), "ratio")
	m.set("core.batch_fill_frac", float64(rows)/float64(batches*vec), "ratio")
	m.set("core.join_build_ms", ms(joinBuild), "ms")
	m.set("core.agg_probe_ms", ms(aggProbe), "ms")
	m.set("core.hash_slots_max", float64(slotsMax), "count")
	m.set("core.hash_probe_max", float64(probeMax), "count")

	ent, err := w.db.Catalog().Get("lineitem")
	if err != nil {
		return err
	}
	keys, err := ent.Table.ReadAllColumn(tpch.LOrderKey)
	if err != nil {
		return err
	}
	hashtableProbes(keys.I64, m)
	return nil
}

func (w *serveHTTP) layers(lt *layerTrace, o *outcome) error {
	m, c := lt.m, o.counters
	m.set("plancache.hit_frac", ratio(c["plan_hits"], c["plan_hits"]+c["plan_misses"]), "ratio")
	m.set("server.admission_rejected", c["rejected"], "count")
	stats, err := w.stats()
	if err != nil {
		return err
	}
	// /v1/stats exposes no cumulative queue count: report who is waiting
	// now plus who gave up waiting during the rounds.
	m.set("server.admission_queued", float64(stats.Admission.Waiting)+c["abandoned"], "count")
	m.set("server.sessions", float64(stats.Sessions), "count")

	// Front end and execution path of each kind's statement, staged on the
	// server's own database. Stage times are means per statement over the
	// six kinds (bind: over the four that carry parameters).
	st := &stager{tr: lt.tr, db: w.db}
	lo := vtypes.MustParseDate("1995-03-01")
	dates := func(days int64) []any { return []any{vtypes.DateValue(lo), vtypes.DateValue(lo + days)} }
	front := map[string]time.Duration{}
	var bind, compile time.Duration
	var pointExec []float64
	for _, k := range []struct {
		kind int
		text string
		args []any
	}{
		{shPoint, sqlPoint, []any{w.orderKeys[0]}}, {shPrepared, sqlPrepared, []any{w.custKeys[0]}},
		{shRangeAgg, sqlRangeAgg, dates(rangeAggDays)}, {shAdhoc, sqlAdhoc(lo, lo+rangeAggDays), nil},
		{shStream, sqlStream, dates(streamDays)}, {shQ1, sqlQ1, nil},
	} {
		best := map[string]time.Duration{}
		var plan algebra.Node
		for i := 0; i < 5; i++ {
			p, f, err := st.front(serveHTTPKinds[k.kind], k.text, 1)
			if err != nil {
				return err
			}
			plan = p
			for name, d := range f.stage {
				if b, ok := best[name]; !ok || d < b {
					best[name] = d
				}
			}
		}
		for name, d := range best {
			front[name] += d
		}
		n := 5
		if k.kind == shPoint {
			n = 200
		}
		bestExec := staged{total: math.MaxInt64}
		for i := 0; i < n; i++ {
			ex, err := st.exec(serveHTTPKinds[k.kind], k.text, plan, toValues(k.args))
			if err != nil {
				return err
			}
			if ex.total < bestExec.total {
				bestExec = ex
			}
			if k.kind == shPoint {
				// The stages alone: the root span also holds the tracer's
				// own bookkeeping between them.
				var stages time.Duration
				for _, d := range ex.stage {
					stages += d
				}
				pointExec = append(pointExec, us(stages))
			}
		}
		bind += bestExec.stage[stBind]
		compile += bestExec.stage[stCompile]
	}
	for name, metricName := range map[string]string{
		stNormalize: "plancache.normalize_us", stParse: "sql.parse_us", stPlan: "sql.plan_us", stRewrite: "rewriter.rewrite_us",
	} {
		m.set(metricName, us(front[name])/6, "us")
	}
	m.set("algebra.bind_us", us(bind)/4, "us")
	m.set("xcompile.compile_us", us(compile)/6, "us")

	// The same point statement three ways, 200 times each: staged (above),
	// through DB.QueryContext on a plan-cache hit, and over HTTP.
	var embedded, overHTTP []float64
	hc := w.clientsHTTP[0]
	body := hc.sqlBody(sqlPoint, fmt.Sprint(w.orderKeys[0]))
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, _, err := drain(w.db, sqlPoint, false, w.orderKeys[0]); err != nil {
			return err
		}
		embedded = append(embedded, us(time.Since(start)))
		start = time.Now()
		if _, err := hc.do(body, false, false); err != nil {
			return err
		}
		overHTTP = append(overHTTP, us(time.Since(start)))
	}
	m.set("vectorwise.hit_overhead_us", median(embedded)-median(pointExec), "us")
	m.set("server.overhead_us", median(overHTTP)-median(embedded), "us")

	// Streaming: a client-side span per request with the engine time the
	// response reports as its child.
	streamBody := hc.sqlBody(sqlStream, fmt.Sprintf("%q,%q", vtypes.FormatDate(lo), vtypes.FormatDate(lo+streamDays)))
	var ttfb []float64
	var respBytes, respRows int64
	for i := 0; i < 10; i++ {
		root := lt.tr.root("http:stream")
		resp, err := hc.do(streamBody, true, false)
		lt.tr.end(root)
		if err != nil {
			return err
		}
		// The server reports how long the statement ran, not when: the
		// interval is placed so it ends with the response. The first byte
		// reaches the client while the engine is still streaming.
		elapsed := int64(resp.elapsedMs * 1e6)
		engine := lt.tr.interval(root, "engine", max(root.End-elapsed, root.Start), root.End)
		lt.tr.interval(engine, "http.first_byte", engine.Start, max(root.Start+int64(resp.ttfb), engine.Start))
		root.Counts = map[string]int64{"rows": resp.rows, "bytes": resp.bytes}
		ttfb = append(ttfb, ms(resp.ttfb))
		respBytes, respRows = resp.bytes, resp.rows
	}
	m.set("server.ttfb_ms", median(ttfb), "ms")
	m.set("server.bytes_per_row", float64(respBytes)/float64(respRows), "B")

	// The encoder alone, on the same statement's batches; the fastest of
	// five passes, like the other probes (the first pays for a cold heap).
	var encBytes int
	encTime := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		n, d, err := encodePass(w.db, sqlStream, dates(streamDays))
		if err != nil {
			return err
		}
		encBytes, encTime = n, min(encTime, d)
	}
	m.set("server.encode_mb_s", float64(encBytes)/mb/encTime.Seconds(), "MB/s")
	m.set("server.encode_share", ms(encTime)/o.kindMs()[shStream], "ratio")
	return nil
}

// encodePass drains a statement and encodes every batch the way the
// server's streaming path does (EncodeBatch + marshal of one NDJSON line),
// timing only the encoding.
func encodePass(db *vectorwise.DB, text string, args []any) (bytes int, spent time.Duration, err error) {
	rows, err := db.QueryContext(context.Background(), text, args...)
	if err != nil {
		return 0, 0, err
	}
	defer rows.Close()
	for {
		b, err := rows.NextBatch()
		if err != nil || b == nil {
			return bytes, spent, err
		}
		start := time.Now()
		line, err := json.Marshal(server.StreamBatch{Rows: server.EncodeBatch(b)})
		spent += time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		bytes += len(line)
	}
}

func (w *updateScan) layers(lt *layerTrace, o *outcome) error {
	m, c := lt.m, o.counters
	for _, name := range []string{"passes", "folds", "rebuilds", "retries"} {
		m.set("mover."+name, c["mover_"+name], "count")
	}
	// Every write statement of the mix touches exactly one row.
	writes := 0
	for _, mix := range updateScanMix[:3] {
		writes += mix.count * w.clients() * len(o.rounds)
	}
	m.set("wal.bytes_per_row", c["wal_bytes"]/float64(writes), "B")

	// The two read kinds through the staged driver (no client is writing).
	st := &stager{tr: lt.tr, db: w.db}
	rangeLo := w.n / 3
	rangeArgs := []any{rangeLo, rangeLo + w.rangeKeys() - 1}
	if _, err := lt.replayKind(st, o, usRangeDelta, fmt.Sprintf(sqlRangeDelta, "ev"), 1, nil, rangeArgs...); err != nil {
		return err
	}
	if _, err := lt.replayKind(st, o, usScanDelta, fmt.Sprintf(sqlScanDelta, "ev"), 1, nil); err != nil {
		return err
	}

	// What the live deltas cost a scan: the same statements on ev and on
	// its delta-free twin.
	var runErr error
	timeOf := func(text string, args ...any) time.Duration {
		return bestOf(5, func() {
			if _, _, err := drain(w.db, text, false, args...); err != nil {
				runErr = err
			}
		})
	}
	dirty, clean := timeOf(fmt.Sprintf(sqlScanDelta, "ev")), timeOf(fmt.Sprintf(sqlScanDelta, "ev_clean"))
	m.set("pdt.merge_overhead_ratio", float64(dirty)/float64(clean), "ratio")
	scanned := func(table string) float64 {
		before := w.db.ScanStats().GroupsScanned
		for i := int64(0); i < 10; i++ {
			lo := i * (w.n - w.rangeKeys()) / 10
			if _, _, err := drain(w.db, fmt.Sprintf(sqlRangeDelta, table), false, lo, lo+w.rangeKeys()-1); err != nil {
				runErr = err
			}
		}
		return float64(w.db.ScanStats().GroupsScanned - before)
	}
	m.set("pdt.groups_unpruned_ratio", ratio(scanned("ev"), scanned("ev_clean")), "ratio")
	if runErr != nil {
		return runErr
	}

	// Commit cost with and without the log: the same one-row insert into a
	// scratch table on the disk-backed database and on an in-memory one.
	commit := func(db *vectorwise.DB) (float64, error) {
		if _, err := db.Exec(fmt.Sprintf(sqlEvDDL, "ev_probe")); err != nil {
			return 0, err
		}
		var lat []float64
		for i := int64(0); i < 50; i++ {
			start := time.Now()
			if _, err := db.ExecArgs(`INSERT INTO ev_probe VALUES (?, ?, ?, ?)`, i, vtypes.DateValue(dateLo), i%evGroups, 1.5); err != nil {
				return 0, err
			}
			lat = append(lat, us(time.Since(start)))
		}
		return median(lat), nil
	}
	withWAL, err := commit(w.db)
	if err != nil {
		return err
	}
	mem := vectorwise.OpenMemory()
	noWAL, err := commit(mem)
	mem.Close()
	if err != nil {
		return err
	}
	m.set("txn.commit_us", withWAL, "us")
	m.set("txn.commit_nowal_us", noWAL, "us")

	// The log alone: a data record and a commit marker, then fsync.
	path := filepath.Join(w.dir, "probe.wal")
	log, _, err := wal.Open(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer log.Close()
	payload := make([]byte, 64)
	var lat []float64
	for i := uint64(1); i <= 50; i++ {
		start := time.Now()
		if _, err := log.Append(i, wal.KindData, "ev", payload); err != nil {
			return err
		}
		if _, err := log.Append(i, wal.KindCommit, "", nil); err != nil {
			return err
		}
		if err := log.Sync(); err != nil {
			return err
		}
		lat = append(lat, us(time.Since(start)))
	}
	m.set("wal.append_sync_us", median(lat), "us")
	return nil
}

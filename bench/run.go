package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// op is one statement of a client's list for a round.
type op struct {
	kind int // index into workload.kinds()
	// pre is untimed preparation (evicting a table, switching
	// parallelism); its wall time, CPU and allocation are taken out of
	// the round. Only single-client workloads use it.
	pre func() error
	// run executes the statement and returns its row count. With verify
	// set it also checks the full result against the oracle (untimed
	// warm-up round); otherwise it checks only what is free to check.
	run func(verify bool) (rows int64, err error)
}

// workload is one traffic mix of the benchmark.
type workload interface {
	name() string
	kinds() []string
	// maxRounds bounds the measured rounds (0 = bounded by time only).
	maxRounds() int
	// setup generates and loads the data and starts whatever serves it.
	setup() error
	// plan returns each client's statement list for round r. The same
	// multiset of kinds every round, fresh seeded parameters.
	plan(r int) [][]op
	// afterRound is untimed work between rounds (re-warming a cache).
	afterRound() error
	// counters returns the cumulative counters the layers expose (scan,
	// buffer pool, plan cache, mover, /v1/stats); the run reports their
	// change over the measured rounds.
	counters() (map[string]float64, error)
	// layers is the workload's part of a traced run: staged replays, layer
	// probes and counters, taken after the rounds while the data is loaded.
	layers(lt *layerTrace, o *outcome) error
	// finish runs the post-run checks (model check, restart check).
	finish() error
	// close releases everything setup acquired, on every exit path.
	close()
}

// config is what the command line fixes for a run.
type config struct {
	seed    uint64
	seconds float64
	rounds  int     // > 0 overrides the time bound (tests)
	scale   float64 // multiplies every data size; 1 in the benchmark
	golden  *goldenFile
}

// roundStat is what one measured round yields.
type roundStat struct {
	wall  time.Duration // net of untimed sections
	use   usage
	alloc uint64
	calib time.Duration
	count int // statements executed, all clients
	// lat[kind] holds the round's latencies in ms, all clients together.
	lat [][]float64
}

// outcome collects a workload's rounds and failure counts.
type outcome struct {
	w         workload
	setup     time.Duration
	rounds    []roundStat
	perRound  int // statements in one round, all clients
	attempted int64
	failed    int64
	firstErr  error
	heapLive  uint64
	// counters is the change of w.counters() over the measured rounds.
	counters map[string]float64
}

func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// runRound executes one round. Clients run serially in a verify round
// (the oracle toggles database-wide switches), concurrently otherwise,
// released together by one barrier.
func (o *outcome) runRound(r int, verify bool) (roundStat, error) {
	w := o.w
	lists := w.plan(r)
	nk := len(w.kinds())
	st := roundStat{lat: make([][]float64, nk)}
	perClient := make([][][]float64, len(lists))
	var excludedWall time.Duration
	var excludedUse usage
	var excludedAlloc uint64
	var mu sync.Mutex // guards o's failure counters across clients

	client := func(c int) {
		lat := make([][]float64, nk)
		for _, p := range lists[c] {
			if p.pre != nil {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				u0, t0 := readUsage(), time.Now()
				err := p.pre()
				excludedWall += time.Since(t0)
				excludedUse = excludedUse.add(readUsage().sub(u0))
				runtime.ReadMemStats(&m1)
				excludedAlloc += m1.TotalAlloc - m0.TotalAlloc
				if err != nil {
					mu.Lock()
					o.fail(fmt.Errorf("%s: prepare: %w", w.kinds()[p.kind], err))
					mu.Unlock()
				}
			}
			t0 := time.Now()
			_, err := p.run(verify)
			d := time.Since(t0)
			lat[p.kind] = append(lat[p.kind], ms(d))
			mu.Lock()
			o.attempted++
			if err != nil {
				o.fail(fmt.Errorf("%s: %w", w.kinds()[p.kind], err))
			}
			mu.Unlock()
		}
		perClient[c] = lat
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0, t0 := readUsage(), time.Now()
	if verify || len(lists) == 1 {
		for c := range lists {
			client(c)
		}
	} else {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				client(c)
			}()
		}
		t0 = time.Now()
		close(start)
		wg.Wait()
	}
	st.wall = time.Since(t0) - excludedWall
	st.use = readUsage().sub(u0).sub(excludedUse)
	runtime.ReadMemStats(&m1)
	st.alloc = m1.TotalAlloc - m0.TotalAlloc - excludedAlloc
	for _, lat := range perClient {
		for k := range lat {
			st.lat[k] = append(st.lat[k], lat[k]...)
			st.count += len(lat[k])
		}
	}
	return st, w.afterRound()
}

// measure sets the workload up, runs the verified warm-up round and then
// measured rounds until the time (or round) bound, and runs the post-run
// checks. A traced run passes layers, which runs after the rounds while
// the workload's state is still as the rounds left it. The caller closes
// the workload.
func measure(w workload, cfg config, layers func(*outcome) error) (*outcome, error) {
	o := &outcome{w: w}
	start := time.Now()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name(), err)
	}
	warm, err := o.runRound(0, true)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name(), err)
	}
	o.setup, o.perRound = time.Since(start), warm.count

	before, err := w.counters()
	if err != nil {
		return nil, fmt.Errorf("%s: counters: %w", w.name(), err)
	}
	begin := time.Now()
	for r := 1; ; r++ {
		if cfg.rounds > 0 {
			if r > cfg.rounds {
				break
			}
		} else if r > 3 {
			avg := time.Since(begin) / time.Duration(r-1)
			if time.Since(begin)+avg/2 > time.Duration(cfg.seconds*float64(time.Second)) {
				break
			}
		}
		if m := w.maxRounds(); m > 0 && r > m {
			break
		}
		// Every round starts from a collected heap, so one round's garbage
		// is not the next round's GC bill.
		runtime.GC()
		calib := calibrate()
		st, err := o.runRound(r, false)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", w.name(), r, err)
		}
		st.calib = calib
		o.rounds = append(o.rounds, st)
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	o.heapLive = mem.HeapAlloc
	if o.counters, err = w.counters(); err != nil {
		return nil, fmt.Errorf("%s: counters: %w", w.name(), err)
	}
	for name := range o.counters {
		o.counters[name] -= before[name]
	}
	if layers != nil {
		if err := layers(o); err != nil {
			return nil, fmt.Errorf("%s: layers: %w", w.name(), err)
		}
	}
	if err := w.finish(); err != nil {
		o.attempted++
		o.fail(err)
	}
	return o, nil
}

// kindMs returns, per kind, the minimum over rounds of the kind's median
// latency within the round: stmt.<kind>.ms.
func (o *outcome) kindMs() []float64 {
	out := make([]float64, len(o.w.kinds()))
	for k := range out {
		best := math.Inf(1)
		for _, r := range o.rounds {
			if len(r.lat[k]) > 0 {
				best = math.Min(best, median(r.lat[k]))
			}
		}
		out[k] = best
	}
	return out
}

// bestRound returns the round with the least wall time.
func (o *outcome) bestRound() roundStat {
	best := o.rounds[0]
	for _, r := range o.rounds[1:] {
		if r.wall < best.wall {
			best = r
		}
	}
	return best
}

const mb = 1 << 20

// endToEnd computes the gated metrics from the measured rounds.
func (o *outcome) endToEnd() map[string]metric {
	n := float64(o.perRound)
	best := o.bestRound()
	var alloc uint64
	minCPU := time.Duration(math.MaxInt64)
	for _, r := range o.rounds {
		alloc += r.alloc
		minCPU = min(minCPU, r.use.cpu)
	}
	return map[string]metric{
		"setup_s":         {o.setup.Seconds(), "s"},
		"ops_s":           {n / best.wall.Seconds(), "1/s"},
		"lat_geomean_ms":  {geomean(o.kindMs()), "ms"},
		"cpu_ms_per_op":   {ms(minCPU) / n, "ms"},
		"alloc_mb_per_op": {float64(alloc) / mb / (n * float64(len(o.rounds))), "MB"},
		"heap_live_mb":    {float64(o.heapLive) / mb, "MB"},
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// kindReport is the ungated per-kind diagnostic: medians and tails next
// to the best-round figure the metrics use.
type kindReport struct {
	Kind    string  `json:"kind"`
	Count   int     `json:"count"`
	BestMs  float64 `json:"best_ms"`
	MedMs   float64 `json:"median_ms"`
	P95Ms   float64 `json:"p95_ms"`
	MaxMs   float64 `json:"max_ms"`
	PerOpMB float64 `json:"alloc_mb,omitempty"`
}

func (o *outcome) kindReports() []kindReport {
	best := o.kindMs()
	out := make([]kindReport, len(best))
	for k, name := range o.w.kinds() {
		var all []float64
		for _, r := range o.rounds {
			all = append(all, r.lat[k]...)
		}
		sort.Float64s(all)
		out[k] = kindReport{Kind: name, Count: len(all), BestMs: best[k],
			MedMs: quantile(all, 0.5), P95Ms: quantile(all, 0.95), MaxMs: quantile(all, 1)}
	}
	return out
}

// disturbedFrac is the share of rounds slower than 1.25x the best.
func (o *outcome) disturbedFrac() float64 {
	best := o.bestRound().wall
	n := 0
	for _, r := range o.rounds {
		if float64(r.wall) > 1.25*float64(best) {
			n++
		}
	}
	return float64(n) / float64(len(o.rounds))
}

func (o *outcome) calibMs() (best, med float64) {
	var xs []float64
	for _, r := range o.rounds {
		xs = append(xs, ms(r.calib))
	}
	return minOf(xs), median(xs)
}

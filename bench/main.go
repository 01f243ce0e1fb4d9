// Command bench is the repository's benchmark: four workloads over the
// whole engine, each measured end to end (untraced) and layer by layer
// (traced, from outside, around calls into each layer's exported
// functions). See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	bash bench/run.sh --workload scan_agg --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload scan_agg --seed 1 --seconds 20 --trace 1 -spans spans.jsonl
//	bash bench/run.sh -golden
//	bash bench/run.sh -compare runsA.jsonl runsB.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

var workloadNames = []string{"scan_agg", "join_sort", "serve_http", "update_scan"}

func newWorkload(name string, cfg config) workload {
	switch name {
	case "scan_agg":
		return newScanAgg(cfg)
	case "join_sort":
		return newJoinSort(cfg)
	case "serve_http":
		return newServeHTTP(cfg)
	case "update_scan":
		return newUpdateScan(cfg)
	}
	return nil
}

// result is the last line of standard output: the contract with the
// driver. report carries everything else a reader wants next to it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Trace    bool         `json:"trace"`
	Env      environment  `json:"env"`
	Rounds   int          `json:"rounds,omitempty"`
	PerRound int          `json:"statements_per_round,omitempty"`
	Kinds    []kindReport `json:"kinds,omitempty"`
	// CalibMs is the fixed kernel's best and median time over the rounds;
	// DisturbedFrac the share of rounds slower than 1.25x the best.
	CalibMs       [2]float64 `json:"calib_ms,omitempty"`
	DisturbedFrac float64    `json:"disturbed_frac"`
	// The Round* fields list every measured round, so a reader can see
	// whether a run was steady, and whether slow rounds paid in the kernel
	// (system CPU, page faults) or in the program.
	RoundWallMs  []float64 `json:"round_wall_ms,omitempty"`
	RoundCPUMs   []float64 `json:"round_cpu_ms,omitempty"`
	RoundSysMs   []float64 `json:"round_sys_ms,omitempty"`
	RoundFaults  []int64   `json:"round_faults,omitempty"`
	RoundAllocMB []float64 `json:"round_alloc_mb,omitempty"`
	// RoundKindMs[r][k] is kind k's median latency within round r.
	RoundKindMs [][]float64 `json:"round_kind_ms,omitempty"`
	FirstError  string      `json:"first_error,omitempty"`
	Result      result      `json:"result"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wl      = flag.String("workload", "", "scan_agg, join_sort, serve_http, update_scan or all")
		seed    = flag.Uint64("seed", 1, "drives statement order, parameters and the ev table's values")
		seconds = flag.Float64("seconds", 20, "how long the measured rounds run")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		rounds  = flag.Int("rounds", 0, "measured rounds; overrides -seconds (tests)")
		scale   = flag.Float64("scale", 1, "multiplies every data size (tests)")
		spans   = flag.String("spans", "", "with -trace 1: write the spans here as JSON lines")
		out     = flag.String("out", "", "append the report to this file as one JSON line (input of -compare)")
		golden  = flag.Bool("golden", false, "regenerate golden.json through the tuple-at-a-time engine")
		compare = flag.Bool("compare", false, "compare two report files: -compare A B")
	)
	flag.Parse()

	switch {
	case *golden:
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			return 2
		}
		return compareRuns(flag.Arg(0), flag.Arg(1))
	}

	// Load is fixed at 2 clients / parallelism 2, the sandbox's core count.
	// Fewer schedulable cores would measure something else, so refuse.
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "bench: needs GOMAXPROCS >= 2 (workloads run 2 clients / parallelism 2)")
		return 2
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, rounds: *rounds, scale: *scale, golden: g}

	names := []string{*wl}
	if *wl == "all" {
		names = workloadNames
	} else if newWorkload(*wl, cfg) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *wl)
		return 2
	}

	var reports []report
	if *trace != 0 {
		// A traced run covers all four workloads whichever one is named:
		// the per-layer list is one list, and most layers are only loaded
		// by one workload (see README.md, "Traced run").
		rep, err := traceAll(cfg, *spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		rep.Workload = *wl
		reports = append(reports, rep)
	} else {
		for _, name := range names {
			rep, err := runUntraced(newWorkload(name, cfg), cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			reports = append(reports, rep)
		}
	}

	code := 0
	for i := range reports {
		rep := &reports[i]
		rep.Seed, rep.Env = *seed, readEnvironment()
		if *out != "" {
			if err := appendJSONLine(*out, rep); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		line, _ := json.Marshal(rep)
		fmt.Fprintln(os.Stderr, string(line))
		if !rep.Result.Correct {
			code = 1
		}
	}
	// The contract line: last on standard output, one object, four keys.
	for _, rep := range reports {
		line, _ := json.Marshal(rep.Result)
		fmt.Println(string(line))
	}
	return code
}

// runUntraced measures one workload and derives the end-to-end metrics.
func runUntraced(w workload, cfg config) (report, error) {
	defer w.close()
	o, err := measure(w, cfg, nil)
	if err != nil {
		return report{}, err
	}
	return o.report(o.endToEnd()), nil
}

func (o *outcome) report(metrics map[string]metric) report {
	best, med := o.calibMs()
	rep := report{
		Workload: o.w.name(), Rounds: len(o.rounds), PerRound: o.perRound,
		Kinds: o.kindReports(), CalibMs: [2]float64{best, med}, DisturbedFrac: o.disturbedFrac(),
		Result: result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics},
	}
	for _, r := range o.rounds {
		rep.RoundWallMs = append(rep.RoundWallMs, ms(r.wall))
		rep.RoundCPUMs = append(rep.RoundCPUMs, ms(r.use.cpu))
		rep.RoundSysMs = append(rep.RoundSysMs, ms(r.use.sys))
		rep.RoundFaults = append(rep.RoundFaults, r.use.faults)
		rep.RoundAllocMB = append(rep.RoundAllocMB, float64(r.alloc)/mb)
		med := make([]float64, len(r.lat))
		for k := range med {
			med[k] = median(r.lat[k])
		}
		rep.RoundKindMs = append(rep.RoundKindMs, med)
	}
	if o.firstErr != nil {
		rep.FirstError = o.firstErr.Error()
	}
	return rep
}

func appendJSONLine(path string, v any) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(v)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

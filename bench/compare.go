package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the program reads: -compare
// takes the bounds from it, the tests pin the emitted names and units to it.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// readReports loads a file of report lines (written by -out) and groups
// every metric's values by workload.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Result.Metrics {
			out[rep.Workload][name] = append(out[rep.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareRuns prints, per (metric, workload), both sets' medians and
// quartiles and a verdict under the bound BENCHMARK.json fixes:
//
//	same        B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  a set's own spread (Q3-Q1 over the median) exceeds the
//	            bound, so the runs cannot tell
//
// It returns 1 when any row is worse or unresolved: this is the tool for
// the two-sets acceptance check and for section 6 of the metrics guide.
func compareRuns(pathA, pathB string) int {
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readReports(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readReports(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var workloads []string
	for w := range a {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tn\tA median [Q1,Q3]\tB median [Q1,Q3]\tB/A\tspread A\tspread B\tbound\tverdict")
	code := 0
	for _, m := range spec.EndToEnd {
		for _, w := range workloads {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			sa, sb := (a3-a1)/ma, (b3-b1)/mb
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "same"
			switch {
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			}
			if verdict != "same" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.4g [%.4g,%.4g]\t%.4g [%.4g,%.4g]\t%.3f\t%.3f\t%.3f\t%.2f\t%s\n",
				m.Name, w, len(va), len(vb), ma, a1, a3, mb, b1, b3, mb/ma, sa, sb, m.Bound, verdict)
		}
	}
	tw.Flush()
	return code
}

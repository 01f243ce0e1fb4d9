// The TPC-H suite test. There is one plan per query — the planner's, from
// the SQL text in internal/tpch — and every engine executes it. What the
// answers must be is data, not a second plan: testdata/tpch_sf001.golden
// holds the 12 result sets at SF 0.01, written from the hand-built
// algebra plans at the last commit that had them (24e6fb6, where the
// plan-vs-plan differential proved hand ≡ planner). Each query's planner
// plan on the vectorized engine must match the golden rows, and the
// tuple and materialized engines, parallelism 2 and 4, and a run without
// min/max pruning must match the vectorized rows.
//
// The file is regenerated by deleting it and running this test, which
// writes the vectorized engine's rows and fails once. That is only sound
// from a commit where this test was green on the old file and the change
// being made is meant to change answers (the generator, a query text):
// the file is the one oracle the planner did not produce, and
// regenerating it over a red test bakes the planner's bug into it.
package enginetest

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/testutil"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// diffSF keeps the fixture fast while leaving every query with matching
// rows (Q10's LIMIT 20 still overflows its group count, etc.).
const diffSF = 0.01

const (
	goldenPath   = "testdata/tpch_sf001.golden"
	goldenHeader = "# TPC-H answers at SF 0.01 (tpch.Generate(0.01, 0)): the oracle of TestTPCHSuite.\n" +
		"# Where it came from and when it may be rewritten: tpch_suite_test.go.\n"
)

var (
	tpchOnce sync.Once
	tpchC    *catalog.Catalog
	tpchErr  error
)

func tpchFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	tpchOnce.Do(func() {
		tpchC, tpchErr = tpch.Generate(diffSF, 0)
	})
	if tpchErr != nil {
		t.Fatalf("generate: %v", tpchErr)
	}
	return tpchC
}

// runSQL plans a statement the way DB.Query does and runs it on the
// vectorized engine.
func runSQL(t *testing.T, cat *catalog.Catalog, text string, parallel int) []vtypes.Row {
	t.Helper()
	rows, _, err := tpch.RunQuery(cat, tpch.SQLQuery{Name: "query", SQL: text}, tpch.RunOptions{Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func collectVectorized(t *testing.T, cat *catalog.Catalog, plan algebra.Node) []vtypes.Row {
	t.Helper()
	op, err := xcompile.Compile(plan, cat, xcompile.Options{})
	if err != nil {
		t.Fatalf("xcompile: %v", err)
	}
	rows, err := core.Collect(op)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return rows
}

// The golden file: per query a "-- Q1 (4 rows)" line, then one line per
// row, cells rendered by vtypes.Value.String and separated by tabs.

func readGolden(t *testing.T) map[string][][]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string][][]string)
	name := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "-- "):
			name = strings.Fields(line)[1]
			golden[name] = [][]string{}
		default:
			golden[name] = append(golden[name], strings.Split(line, "\t"))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

func renderGolden(b *strings.Builder, name string, rows []vtypes.Row) {
	fmt.Fprintf(b, "-- %s (%d rows)\n", name, len(rows))
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
}

// matchGolden compares rows to their rendering in the golden file, in
// order: cell for cell as text, except that a DOUBLE is parsed back and
// held to testutil.CloseValue's tolerance.
func matchGolden(t *testing.T, name string, want [][]string, got []vtypes.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: golden file has %d rows, the plan returned %d", name, len(want), len(got))
	}
	for i, r := range got {
		if len(want[i]) != len(r) {
			t.Fatalf("%s row %d: golden file has %d columns, the plan returned %d", name, i, len(want[i]), len(r))
		}
		for c, v := range r {
			ok := want[i][c] == v.String()
			if !ok && v.Kind == vtypes.KindF64 && !v.Null {
				f, err := strconv.ParseFloat(want[i][c], 64)
				ok = err == nil && testutil.CloseValue(vtypes.F64Value(f), v)
			}
			if !ok {
				t.Fatalf("%s row %d column %d: golden %q, got %q\n  golden row %q\n  got row    %v", name, i, c, want[i][c], v.String(), want[i], r)
			}
		}
	}
}

func TestTPCHSuite(t *testing.T) {
	cat := tpchFixture(t)
	golden := readGolden(t)
	var fresh strings.Builder
	for _, q := range tpch.SQLSuite() {
		t.Run(q.Name, func(t *testing.T) {
			run := func(label string, opts tpch.RunOptions) []vtypes.Row {
				rows, _, err := tpch.RunQuery(cat, q, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return rows
			}
			vec := run("vectorized", tpch.RunOptions{})
			renderGolden(&fresh, q.Name, vec)
			if golden != nil {
				matchGolden(t, q.Name, golden[q.Name], vec)
			}
			// Every statement of the suite sorts, except the one-row
			// aggregates: engines, parallelism and pruning agree in order.
			for _, v := range []struct {
				label string
				opts  tpch.RunOptions
			}{
				{"tuple", tpch.RunOptions{Engine: tpch.EngineTuple}},
				{"materialized", tpch.RunOptions{Engine: tpch.EngineMaterialized}},
				{"parallel 2", tpch.RunOptions{Parallel: 2}},
				{"parallel 4", tpch.RunOptions{Parallel: 4}},
				{"no pruning", tpch.RunOptions{NoPrune: true}},
			} {
				if err := testutil.SameRows(q.Name+" vectorized vs "+v.label, vec, run(v.label, v.opts)); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if golden == nil {
		if err := os.WriteFile(goldenPath, []byte(goldenHeader+fresh.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: wrote it from the vectorized engine's rows; see the header of tpch_suite_test.go before committing it", goldenPath)
	}
}

package vectorwise

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/sql"
	"vectorwise/internal/testutil"
	"vectorwise/internal/tpch"
)

// tpchDB registers a generated TPC-H catalog's tables in a fresh DB.
func tpchDB(t testing.TB, sf float64) *DB {
	t.Helper()
	cat, err := tpch.Generate(sf, 8192)
	if err != nil {
		t.Fatal(err)
	}
	db := OpenMemory()
	for _, name := range cat.Names() {
		tbl, _, err := cat.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		db.RegisterTable(tbl)
	}
	return db
}

// planOf returns the planner's output for a statement.
func planOf(t testing.TB, db *DB, text string) algebra.Node {
	t.Helper()
	st, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (&sql.Planner{Cat: db.Catalog()}).PlanQuery(st.AST)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

var colRefRE = regexp.MustCompile(`#(\d+)`)

// markRefs marks the columns the scalars reference, read off their
// rendering ("#7"). A '#' inside a string literal can only mark too
// much, which weakens the check below but never fails it wrongly.
func markRefs(need []bool, ss ...algebra.Scalar) {
	for _, s := range ss {
		if s == nil {
			continue
		}
		for _, m := range colRefRE.FindAllStringSubmatch(s.String(), -1) {
			if ix, _ := strconv.Atoi(m[1]); ix < len(need) {
				need[ix] = true
			}
		}
	}
}

// deadScanColumns is the test's own required-columns walk, written
// against the plan's semantics rather than the pass: it reports every
// scan column that neither a pushed filter nor anything above reads.
func deadScanColumns(n algebra.Node, need []bool, dead *[]string) {
	all := func(w int) []bool { return make([]bool, w) }
	switch t := n.(type) {
	case *algebra.ScanNode:
		need = append([]bool(nil), need...)
		markRefs(need, t.Filters...)
		for i, used := range need {
			if !used && len(t.Cols) > 1 {
				*dead = append(*dead, fmt.Sprintf("%s.%s", t.Table, t.Out.Col(i).Name))
			}
		}
	case *algebra.SelectNode:
		need = append([]bool(nil), need...)
		markRefs(need, t.Pred)
		deadScanColumns(t.Input, need, dead)
	case *algebra.ProjectNode:
		in := all(t.Input.Schema().Len())
		markRefs(in, t.Exprs...)
		deadScanColumns(t.Input, in, dead)
	case *algebra.AggNode:
		in := all(t.Input.Schema().Len())
		markRefs(in, t.GroupBy...)
		for _, a := range t.Aggs {
			markRefs(in, a.Arg)
		}
		deadScanColumns(t.Input, in, dead)
	case *algebra.JoinNode:
		lw := t.Left.Schema().Len()
		l, r := append([]bool(nil), need[:lw]...), all(t.Right.Schema().Len())
		if len(need) > lw {
			copy(r, need[lw:])
		}
		markRefs(l, t.LeftKeys...)
		markRefs(r, t.RightKeys...)
		deadScanColumns(t.Left, l, dead)
		deadScanColumns(t.Right, r, dead)
	case *algebra.SortNode:
		need = append([]bool(nil), need...)
		for _, k := range t.Keys {
			markRefs(need, k.Expr)
		}
		deadScanColumns(t.Input, need, dead)
	case *algebra.LimitNode:
		deadScanColumns(t.Input, need, dead)
	case *algebra.UnionAllNode:
		for _, c := range t.Inputs {
			deadScanColumns(c, need, dead)
		}
	}
}

// scanLists renders every scan of a plan, in plan order.
func scanLists(n algebra.Node) []string {
	if s, ok := n.(*algebra.ScanNode); ok {
		return []string{fmt.Sprintf("%s%v", s.Table, s.Cols)}
	}
	var out []string
	for _, c := range n.Children() {
		out = append(out, scanLists(c)...)
	}
	return out
}

// TestPrunedScanColumns pins what each of the 12 SQL TPC-H plans reads —
// a scan lists the columns its query names and no others — and checks,
// with a walk of its own, that no scan anywhere keeps a column that
// neither one of its pushed filters nor anything above it references.
func TestPrunedScanColumns(t *testing.T) {
	db := tpchDB(t, 0.01)
	defer db.Close()
	want := map[string]string{
		"Q1":  "lineitem[4 5 6 7 8 9 10]",
		"Q2":  "partsupp[0 1 3] part[0 2 5] supplier[0 1 3 5] nation[0 1 2] region[0 1] partsupp[3]",
		"Q3":  "lineitem[0 5 6 10] orders[0 1 4 7] customer[0 6]",
		"Q4":  "orders[0 4 5] lineitem[0 11 12]",
		"Q5":  "lineitem[0 2 5 6] orders[0 1 4] customer[0 3] supplier[0 3] nation[0 1 2] region[0 1]",
		"Q6":  "lineitem[4 5 6 10]",
		"Q10": "customer[0 1 2 3 4 5] lineitem[0 5 6 8] orders[0 1 4] nation[0 1]",
		"Q11": "partsupp[0 1 2 3] supplier[0 3] nation[0 1] partsupp[1 2 3] supplier[0 3] nation[0 1]",
		"Q12": "orders[0 5] lineitem[0 10 11 12 14]",
		"Q14": "part[0 4] lineitem[1 5 6 10]",
		"Q18": "lineitem[0 4] orders[0 1 3 4] lineitem[0 4] customer[0 1]",
		"Q19": "lineitem[1 4 5 6 13 14] part[0 3 5 6]",
	}
	suite := tpch.SQLSuite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d queries, %d pinned", len(suite), len(want))
	}
	for _, q := range suite {
		plan := planOf(t, db, q.SQL)
		if got := strings.Join(scanLists(plan), " "); got != want[q.Name] {
			t.Errorf("%s scans\n  got  %s\n  want %s", q.Name, got, want[q.Name])
		}
		need := make([]bool, plan.Schema().Len())
		for i := range need {
			need[i] = true
		}
		var dead []string
		deadScanColumns(plan, need, &dead)
		if len(dead) > 0 {
			t.Errorf("%s scans columns nothing references: %v", q.Name, dead)
		}
	}
	// SELECT * keeps everything; COUNT(*) keeps one fixed-width column.
	if got := scanLists(planOf(t, db, `SELECT * FROM nation`)); got[0] != "nation[0 1 2 3]" {
		t.Errorf("SELECT * scans %v", got)
	}
	if got := scanLists(planOf(t, db, `SELECT COUNT(*) FROM lineitem`)); got[0] != "lineitem[0]" {
		t.Errorf("COUNT(*) scans %v", got)
	}
	// The parallel rewrite still matches the pruned pipeline.
	db.SetParallelism(2)
	q6, _ := tpch.FindSQL("Q6")
	out, err := db.Explain(q6.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "XchgUnion width=2") || !strings.Contains(out, "Scan lineitem cols=[4 5 6 10] part=") {
		t.Errorf("Q6 at parallelism 2 is not a union of pruned partition scans:\n%s", out)
	}
}

// TestParallelSuitePlans pins what the parallel rewrite does to the
// planner's own plans: Q1's aggregate sits under a sort and two
// projections (one of them AVG's quotient) and still splits into
// partial aggregates over partition scans; a join input is left alone;
// and every suite query answers the same at parallelism 1 and 2.
func TestParallelSuitePlans(t *testing.T) {
	db := tpchDB(t, 0.01)
	defer db.Close()
	serial := make(map[string]*Result)
	for _, q := range tpch.SQLSuite() {
		db.SetParallelism(1)
		res, err := db.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		serial[q.Name] = res
	}
	db.SetParallelism(2)
	for _, q := range tpch.SQLSuite() {
		res, err := db.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s at parallelism 2: %v", q.Name, err)
		}
		same := testutil.SameRowsUnordered
		if strings.Contains(q.SQL, "ORDER BY") {
			same = testutil.SameRows
		}
		if err := same(q.Name, serial[q.Name].Rows, res.Rows); err != nil {
			t.Errorf("parallelism 1 vs 2: %v", err)
		}
	}

	q1, _ := tpch.FindSQL("Q1")
	out, err := db.Explain(q1.SQL)
	if err != nil {
		t.Fatal(err)
	}
	partial := `Aggregate groups=2 aggs=[sum(#0) sum(#1) sum((#1 * (1 - #2))) sum(((#1 * (1 - #2)) * (1 + #3))) ` +
		`count(#0) count(#1) sum(#2) count(#2) count(*)] partial`
	want := `Project [l_returnflag l_linestatus sum_qty sum_base_price sum_disc_price sum_charge avg_qty avg_price avg_disc count_order]
  Sort keys=2
    Aggregate groups=2 aggs=[sum(#2) sum(#3) sum(#4) sum(#5) sum(#6) sum(#7) sum(#8) sum(#9) sum(#10)]
      XchgUnion width=2
        ` + partial + `
          Scan lineitem cols=[4 5 6 7 8 9 10] part=[0,4) filters=[(#6 <= 1998-09-02)]
        ` + partial + `
          Scan lineitem cols=[4 5 6 7 8 9 10] part=[4,8) filters=[(#6 <= 1998-09-02)]
`
	if out != want {
		t.Errorf("Q1 at parallelism 2:\n%swant\n%s", out, want)
	}
	for _, name := range []string{"Q3", "Q12"} {
		q, _ := tpch.FindSQL(name)
		if out, err := db.Explain(q.SQL); err != nil || strings.Contains(out, "XchgUnion") {
			t.Errorf("%s aggregates a join, which the rewrite leaves serial (err %v):\n%s", name, err, out)
		}
	}
}

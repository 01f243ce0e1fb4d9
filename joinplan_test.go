package vectorwise

import (
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/testutil"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// joinPlan renders what the planner decided about a plan's joins, read
// off the fields Explain prints: every join (type, hashed side, estimate)
// and scan (table, estimate), indented by join depth. The right input of
// a join is the hashed one unless it says build=left.
func joinPlan(n algebra.Node) string {
	var sb strings.Builder
	var walk func(n algebra.Node, depth int)
	walk = func(n algebra.Node, depth int) {
		pad := strings.Repeat("  ", depth)
		switch t := n.(type) {
		case *algebra.JoinNode:
			hint := ""
			if t.BuildLeft {
				hint = " build=left"
			}
			fmt.Fprintf(&sb, "%s%s%s est=%d\n", pad, t.Type, hint, t.Est)
			depth++
		case *algebra.ScanNode:
			fmt.Fprintf(&sb, "%s%s est=%d\n", pad, t.Table, t.Est)
		}
		for _, c := range n.Children() {
			walk(c, depth)
		}
	}
	walk(n, 0)
	return sb.String()
}

// TestSuiteJoinPlans pins, at SF 0.01, the join order, hashed side and
// row estimates the planner chooses for the ten suite queries that join:
// the filtered small input is hashed and the big one streams past it
// (Q3, Q10, Q12, Q14), the dimension chain joins from its selective end
// (Q2, Q5, Q11), the semi join of an IN subquery sits on the table that
// owns the key, below the joins (Q18), and a semi join whose kept side is
// the small one builds on it (Q4). Explain carries the same fields.
func TestSuiteJoinPlans(t *testing.T) {
	db := tpchDB(t, 0.01)
	defer db.Close()
	db.SetParallelism(1)
	want := map[string]string{
		"Q2": `
inner est=40
  inner est=40
    inner est=160
      partsupp est=8000
      part est=40
    inner est=25
      supplier est=100
      inner est=7
        nation est=25
        region est=2
  partsupp est=8000
`,
		"Q3": `
inner est=3936
  lineitem est=30354
  inner est=1945
    orders est=7780
    customer est=375
`,
		"Q4": `
semi build=left est=613
  orders est=613
  lineitem est=14944
`,
		"Q5": `
inner est=97
  lineitem est=59775
  inner est=2430
    orders est=2430
    inner est=1500
      customer est=1500
      inner est=25
        supplier est=100
        inner est=7
          nation est=25
          region est=2
`,
		"Q10": `
inner est=613
  inner est=613
    customer est=1500
    inner est=613
      lineitem est=14944
      orders est=613
  nation est=25
`,
		"Q11": `
inner est=2000
  inner est=2000
    partsupp est=8000
    inner est=25
      supplier est=100
      nation est=7
  inner est=2000
    partsupp est=8000
    inner est=25
      supplier est=100
      nation est=7
`,
		"Q12": `
inner est=143
  orders est=15000
  lineitem est=143
`,
		"Q14": `
inner est=757
  part est=2000
  lineitem est=757
`,
		"Q18": `
inner est=14944
  lineitem est=59775
  inner est=3750
    semi est=3750
      orders est=15000
      lineitem est=59775
    customer est=1500
`,
		"Q19": `
inner est=3736
  lineitem est=3736
  part est=2000
`,
	}
	for _, q := range tpch.SQLSuite() {
		plan := planOf(t, db, q.SQL)
		if got := "\n" + joinPlan(plan); want[q.Name] != "" && got != want[q.Name] {
			t.Errorf("%s joins%swant%s", q.Name, got, want[q.Name])
		}
		// A statement without a join is not estimated at all.
		if out := algebra.Explain(plan); (want[q.Name] != "") != strings.Contains(out, " est=") {
			t.Errorf("%s: estimates shown for joins only:\n%s", q.Name, out)
		}
	}
	out, err := db.Explain(`SELECT o_orderpriority, COUNT(*) FROM orders SEMI JOIN lineitem ON o_orderkey = l_orderkey
		WHERE o_orderdate < DATE '1992-03-01' GROUP BY o_orderpriority`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "HashJoin semi build=left est=") || !strings.Contains(out, "Scan lineitem cols=[0] est=59775") {
		t.Errorf("Explain shows the hashed side and the estimates:\n%s", out)
	}
}

// TestJoinOrderIgnoresFromOrder: the join graph decides the plan, not
// the order the statement lists it in — Q3, Q5 and Q10 rewritten from
// other starting tables, their ON conditions redistributed over the
// clauses, plan byte-identically and return the same rows.
func TestJoinOrderIgnoresFromOrder(t *testing.T) {
	db := tpchDB(t, 0.01)
	defer db.Close()
	db.SetParallelism(1)
	for name, froms := range map[string][]string{
		"Q3": {
			`customer JOIN orders ON o_custkey = c_custkey JOIN lineitem ON l_orderkey = o_orderkey`,
			`orders JOIN lineitem ON o_orderkey = l_orderkey JOIN customer ON c_custkey = o_custkey`,
		},
		"Q5": {
			`region JOIN nation ON n_regionkey = r_regionkey JOIN supplier ON s_nationkey = n_nationkey
			 JOIN customer ON c_nationkey = s_nationkey JOIN orders ON o_custkey = c_custkey
			 JOIN lineitem ON l_suppkey = s_suppkey AND l_orderkey = o_orderkey`,
			`supplier JOIN lineitem ON l_suppkey = s_suppkey JOIN nation ON s_nationkey = n_nationkey
			 JOIN orders ON l_orderkey = o_orderkey JOIN region ON n_regionkey = r_regionkey
			 JOIN customer ON c_nationkey = s_nationkey AND o_custkey = c_custkey`,
		},
		"Q10": {
			`nation JOIN customer ON c_nationkey = n_nationkey JOIN orders ON o_custkey = c_custkey
			 JOIN lineitem ON l_orderkey = o_orderkey`,
			`orders JOIN customer ON o_custkey = c_custkey JOIN lineitem ON l_orderkey = o_orderkey
			 JOIN nation ON c_nationkey = n_nationkey`,
		},
	} {
		q, _ := tpch.FindSQL(name)
		from, where := strings.Index(q.SQL, "FROM "), strings.Index(q.SQL, "WHERE ")
		wantPlan, err := db.Explain(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		wantRows, err := db.Query(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range froms {
			text := q.SQL[:from] + "FROM " + f + "\n" + q.SQL[where:]
			if got, err := db.Explain(text); err != nil || got != wantPlan {
				t.Errorf("%s FROM %s (err %v) plans\n%swant\n%s", name, f, err, got, wantPlan)
			}
			res, err := db.Query(text)
			if err != nil {
				t.Fatal(err)
			}
			if err := testutil.SameRows(name, wantRows.Rows, res.Rows); err != nil {
				t.Errorf("FROM %s: %v", f, err)
			}
		}
	}
}

// TestRangeEstimatesAsOneOverlap: the estimator reads the bounds on one
// column as one interval, so Q4's and Q5's `o_orderdate BETWEEN a AND b`
// written out as two bounds, in either orientation, estimates and joins
// as the BETWEEN does (613 and 2430 orders at SF 0.01), not as two
// independent overlaps (3221 and 4929).
func TestRangeEstimatesAsOneOverlap(t *testing.T) {
	db := tpchDB(t, 0.01)
	defer db.Close()
	db.SetParallelism(1)
	for name, r := range map[string][3]string{
		"Q4": {"DATE '1993-07-01'", "DATE '1993-09-30'", "orders est=613\n"},
		"Q5": {"DATE '1994-01-01'", "DATE '1994-12-31'", "orders est=2430\n"},
	} {
		q, _ := tpch.FindSQL(name)
		between := "o_orderdate BETWEEN " + r[0] + " AND " + r[1]
		if !strings.Contains(q.SQL, between) {
			t.Fatalf("%s has no %s", name, between)
		}
		want := joinPlan(planOf(t, db, q.SQL))
		if !strings.Contains(want, r[2]) {
			t.Errorf("%s joins\n%swith no %q", name, want, r[2])
		}
		for _, pair := range []string{
			"o_orderdate >= " + r[0] + " AND o_orderdate <= " + r[1],
			r[0] + " <= o_orderdate AND " + r[1] + " >= o_orderdate",
		} {
			if got := joinPlan(planOf(t, db, strings.Replace(q.SQL, between, pair, 1))); got != want {
				t.Errorf("%s with %s joins\n%swant, as with its BETWEEN,\n%s", name, pair, got, want)
			}
		}
	}
}

// TestJoinOrderWithoutStatistics: tables that carry no rows and no
// min/max — a freshly created schema, the cluster coordinator's catalog —
// give every join the same estimate, and equal estimates keep the order
// the statement is written in: left-deep, the JOINed table hashed.
func TestJoinOrderWithoutStatistics(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	for _, ddl := range tpch.DDL() {
		mustExec(t, db, ddl)
	}
	q5, _ := tpch.FindSQL("Q5")
	want := `
inner est=0
  inner est=0
    inner est=0
      inner est=0
        inner est=0
          lineitem est=0
          orders est=0
        customer est=0
      supplier est=0
    nation est=0
  region est=0
`
	plan := planOf(t, db, q5.SQL)
	if got := "\n" + joinPlan(plan); got != want {
		t.Errorf("Q5 over empty tables joins%swant%s", got, want)
	}
	if out := algebra.Explain(plan); strings.Contains(out, "est=") || strings.Contains(out, "build=left") {
		t.Errorf("no estimate to show:\n%s", out)
	}
}

// TestJoinOrderIgnoresParameterValues: a statement with placeholders is
// planned once, before any value is bound, so its join order cannot
// depend on one: every binding of the template is the same plan.
func TestJoinOrderIgnoresParameterValues(t *testing.T) {
	db := tpchDB(t, 0.01)
	defer db.Close()
	text := `SELECT c_name, SUM(o_totalprice) FROM orders JOIN customer ON o_custkey = c_custkey
		WHERE o_orderdate BETWEEN ? AND ? AND c_acctbal > ? GROUP BY c_name`
	tmpl := planOf(t, db, text)
	date := func(s string) vtypes.Value { return vtypes.DateValue(vtypes.MustParseDate(s)) }
	var plans []string
	for _, args := range [][]vtypes.Value{
		{date("1992-01-01"), date("1998-12-31"), vtypes.F64Value(-1e9)}, // every order, every customer
		{date("1995-06-17"), date("1995-06-17"), vtypes.F64Value(9990)}, // one day, the richest few
	} {
		bound, err := algebra.BindParams(tmpl, args)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, joinPlan(bound))
	}
	if plans[0] != plans[1] || plans[0] != joinPlan(tmpl) {
		t.Errorf("bindings of one template plan differently:\n%s\n%s\ntemplate\n%s", plans[0], plans[1], joinPlan(tmpl))
	}
	if !strings.Contains(plans[0], "orders est=938\n") { // 15000 × defaultSel² for the two placeholder bounds
		t.Errorf("a placeholder bound is worth the default selectivity:\n%s", plans[0])
	}
}

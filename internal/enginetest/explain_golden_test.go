// The plan golden. testdata/tpch_sf001.explain.golden pins
// algebra.Explain of every plan shape the suite produces: the 12
// queries serial and under Parallelize at 2, both halves of Split for
// the aggregate, join and top-N shapes, and three parametrised
// templates before and after BindParams. It was generated at commit
// c84faff (the parent of the PR that put every plan pass on
// algebra.MapNode), so a pass rewritten as a rule is held to the plans
// the hand-copied switches produced. Regenerate it — delete the file,
// run this test, which writes it and fails once — only from a commit
// where the test was green and the change is meant to change plans.
package enginetest

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

const (
	explainGoldenPath   = "testdata/tpch_sf001.explain.golden"
	explainGoldenHeader = "# algebra.Explain of the TPC-H suite's plans at SF 0.01 (tpch.Generate(0.01, 8192)): the oracle of TestExplainGolden.\n" +
		"# Where it came from and when it may be rewritten: explain_golden_test.go.\n"
)

func TestExplainGolden(t *testing.T) {
	// 8192-row groups, unlike tpchFixture's single group per table: the
	// parallel sections need partitions to put under an XchgUnion.
	cat, err := tpch.Generate(diffSF, 8192)
	if err != nil {
		t.Fatal(err)
	}
	var fresh strings.Builder
	fresh.WriteString(explainGoldenHeader)
	section := func(name string, n algebra.Node) {
		fmt.Fprintf(&fresh, "-- %s\n%s", name, algebra.Explain(n))
	}
	parse := func(text string) sql.Stmt {
		st, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return st.AST
	}
	plans := make(map[string]algebra.Node)
	for _, q := range tpch.SQLSuite() {
		plan, err := (&sql.Planner{Cat: cat}).PlanQuery(parse(q.SQL))
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		plans[q.Name] = plan
		section(q.Name, plan)
		section(q.Name+" parallel 2", rewriter.Parallelize(plan, cat, 2))
	}
	for _, name := range []string{"Q1", "Q3", "Q18"} {
		below, above := rewriter.Split(plans[name])
		section(name+" split below", below)
		section(name+" split above", above(&algebra.RemoteNode{Shard: 0, Out: below.Schema()}))
	}

	date := func(s string) vtypes.Value {
		d, err := vtypes.ParseDate(s)
		if err != nil {
			t.Fatal(err)
		}
		return vtypes.DateValue(d)
	}
	template := func(name string, plan algebra.Node, err error, args ...vtypes.Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		section(name+" template", plan)
		bound, err := algebra.BindParams(plan, args)
		if err != nil {
			t.Fatalf("%s: bind: %v", name, err)
		}
		section(name+" bound", bound)
	}
	sel, err := (&sql.Planner{Cat: cat}).PlanQuery(parse(`
		SELECT o_orderpriority, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM lineitem JOIN orders ON l_orderkey = o_orderkey
		WHERE o_orderdate BETWEEN ? AND ? AND NOT (l_quantity < ?) AND l_shipmode IN (?, ?)
		GROUP BY o_orderpriority HAVING SUM(l_quantity) > ?
		ORDER BY revenue DESC LIMIT 5`))
	template("select", sel, err, date("1994-01-01"), date("1994-12-31"), vtypes.I64Value(24),
		vtypes.StrValue("MAIL"), vtypes.StrValue("SHIP"), vtypes.I64Value(100))
	up := parse(`UPDATE lineitem SET l_quantity = l_quantity + ?, l_comment = ?
		WHERE l_orderkey = ? AND NOT (l_linenumber < ?) AND l_comment LIKE 'a%'`).(*sql.UpdateStmt)
	upd, _, err := (&sql.Planner{Cat: cat}).PlanDML(up.Table, up.Where, up.SetCols, up.SetExprs)
	template("update", upd, err, vtypes.I64Value(1), vtypes.StrValue("x"), vtypes.I64Value(7), vtypes.I64Value(2))
	del := parse(`DELETE FROM orders WHERE o_orderkey = ? AND o_totalprice > 0 - ?`).(*sql.DeleteStmt)
	dele, _, err := (&sql.Planner{Cat: cat}).PlanDML(del.Table, del.Where, nil, nil)
	template("delete", dele, err, vtypes.I64Value(7), vtypes.F64Value(1))

	want, err := os.ReadFile(explainGoldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(explainGoldenPath, []byte(fresh.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: wrote it; see the header of explain_golden_test.go before committing it", explainGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n  golden %q\n  got    %q", explainGoldenPath, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("%s: golden has %d lines, the plans render to %d", explainGoldenPath, len(wl), len(gl))
	}
}

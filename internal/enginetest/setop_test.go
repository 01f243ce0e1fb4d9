// Set-operation execution: UNION / UNION ALL / EXCEPT / INTERSECT run
// through the full front end onto the vectorized engine. Expected rows
// are computed in Go from the two branches' own results, which pins the
// duplicate-eliminating group-by (an AggNode with zero aggregates) and
// the all-column semi/anti joins the planner lowers set operations to.
package enginetest

import (
	"fmt"
	"testing"

	"vectorwise/internal/testutil"
	"vectorwise/internal/vtypes"
)

func TestSetOpExecution(t *testing.T) {
	cat := tpchFixture(t)
	const left = `SELECT c_custkey FROM customer WHERE c_custkey <= 40`
	const right = `SELECT o_custkey FROM orders WHERE o_custkey <= 20`
	lrows := runSQL(t, cat, left, 1)
	rrows := runSQL(t, cat, right, 1)
	if len(lrows) == 0 || len(rrows) == 0 {
		t.Fatalf("branch queries returned %d and %d rows", len(lrows), len(rrows))
	}
	keys := func(rows []vtypes.Row) map[int64]bool {
		m := map[int64]bool{}
		for _, r := range rows {
			m[r[0].I64] = true
		}
		return m
	}
	lset, rset := keys(lrows), keys(rrows)
	distinct := func(include func(k int64) bool, sets ...map[int64]bool) []vtypes.Row {
		seen := map[int64]bool{}
		var out []vtypes.Row
		for _, s := range sets {
			for k := range s {
				if !seen[k] && include(k) {
					seen[k] = true
					out = append(out, vtypes.Row{vtypes.I64Value(k)})
				}
			}
		}
		return out
	}
	cases := []struct {
		op   string
		want []vtypes.Row
	}{
		{"UNION", distinct(func(int64) bool { return true }, lset, rset)},
		{"INTERSECT", distinct(func(k int64) bool { return rset[k] }, lset)},
		{"EXCEPT", distinct(func(k int64) bool { return !rset[k] }, lset)},
	}
	for _, tc := range cases {
		if len(tc.want) == 0 {
			t.Fatalf("%s: expected result is empty (fixture too small?)", tc.op)
		}
		for _, par := range []int{1, 4} {
			q := fmt.Sprintf("%s %s %s", left, tc.op, right)
			got := runSQL(t, cat, q, par)
			testutil.MatchRows(t, fmt.Sprintf("%s/par=%d", tc.op, par), tc.want, got)
		}
	}
	// UNION ALL keeps duplicates: exactly both branches concatenated.
	all := append(append([]vtypes.Row{}, lrows...), rrows...)
	got := runSQL(t, cat, left+" UNION ALL "+right, 1)
	testutil.MatchRows(t, "UNION ALL", all, got)
}

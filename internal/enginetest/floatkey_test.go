package enginetest

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/matengine"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// TestDoubleKeyIdentity pins what a DOUBLE key is to every hash-keyed
// operator: vtypes.Value.Compare's identity, which the sort and
// Value.Equal already follow. -0 equals +0, and every NaN, whatever its
// sign, is one key. GROUP BY, UNION and joins over x = (NaN, NaN, -NaN,
// -0, 0, 0, -0, 1.5) must give the expected rows on the vectorized engine
// at vector sizes 1, 3 and 1024 and on the tuple and materialized engines.
// A zero renders as 0 whatever its sign: which of a group's zeros is its
// key is not part of the rule.
func TestDoubleKeyIdentity(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	negZero := math.Copysign(0, -1)
	cat := catalog.New()
	schema := vtypes.NewSchema(vtypes.Column{Name: "x", Kind: vtypes.KindF64})
	table := func(name string, xs ...float64) *algebra.ScanNode {
		rows := make([]vtypes.Row, len(xs))
		for i, x := range xs {
			rows[i] = vtypes.Row{vtypes.F64Value(x)}
		}
		return addTable(t, cat, name, schema, rows)
	}
	x := table("x", math.NaN(), math.NaN(), negNaN, negZero, 0, 0, negZero, 1.5)
	y := table("y", 0, negNaN, 2.5)
	x2 := &algebra.ScanNode{Table: x.Table, Cols: x.Cols, Out: x.Out}
	key := []algebra.Scalar{colRef(0, vtypes.KindF64)}
	count := []algebra.AggExpr{{Fn: algebra.AggCountStar}}
	join := func(l, r algebra.Node, typ algebra.JoinType) algebra.Node {
		return &algebra.JoinNode{Left: l, Right: r, LeftKeys: key, RightKeys: key, Type: typ}
	}
	for _, tc := range []struct {
		name string
		plan algebra.Node
		want []string
	}{
		{"group by", &algebra.AggNode{Input: x, GroupBy: key, Aggs: count, Names: []string{"x", "n"}},
			[]string{"0|4", "1.5|1", "NaN|3"}},
		{"union", &algebra.AggNode{Input: &algebra.UnionAllNode{Inputs: []algebra.Node{x, y}}, GroupBy: key, Names: []string{"x"}},
			[]string{"0", "1.5", "2.5", "NaN"}},
		{"self-join", &algebra.AggNode{Input: join(x, x2, algebra.JoinInner), Aggs: count, Names: []string{"n"}},
			[]string{"26"}},
		{"semi join", join(y, x, algebra.JoinLeftSemi), []string{"0", "NaN"}},
		{"anti join", join(y, x, algebra.JoinLeftAnti), []string{"2.5"}},
	} {
		want := strings.Join(tc.want, "\n")
		check := func(engine string, rows []vtypes.Row, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, engine, err)
			}
			if got := strings.Join(renderKeys(rows), "\n"); got != want {
				t.Errorf("%s on %s:\n%s\nwant\n%s", tc.name, engine, got, want)
			}
		}
		for _, vecSize := range []int{1, 3, 1024} {
			op, err := xcompile.Compile(tc.plan, cat, xcompile.Options{VecSize: vecSize})
			if err != nil {
				t.Fatal(err)
			}
			rows, err := core.Collect(op)
			check("vectorized/vec"+strconv.Itoa(vecSize), rows, err)
		}
		rows, err := tupleengine.Run(tc.plan, cat)
		check("tuple", rows, err)
		rows, err = matengine.Run(tc.plan, cat)
		check("materialized", rows, err)
	}
}

// renderKeys renders rows sorted, cells joined by "|", a DOUBLE zero as 0.
func renderKeys(rows []vtypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for c, v := range r {
			switch {
			case v.Kind == vtypes.KindF64 && v.F64 == 0:
				cells[c] = "0"
			case v.Kind == vtypes.KindF64:
				cells[c] = strconv.FormatFloat(v.F64, 'g', -1, 64)
			default:
				cells[c] = v.String()
			}
		}
		out[i] = strings.Join(cells, "|")
	}
	slices.Sort(out)
	return out
}

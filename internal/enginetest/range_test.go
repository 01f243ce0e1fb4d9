// The range-fusion differential. xcompile.pred compiles the bounds on one
// column within one conjunction whose intersection is closed at both ends
// as a single between pass: `x >= ? AND x <= ?` (what `x BETWEEN ? AND ?`
// becomes once bound), a strict pair on BIGINT/DATE shifted by one, a
// literal BETWEEN, three or more bounds, and an empty intersection. For
// every such range the fused vectorized answer must equal the tuple and
// materialized engines', and the vectorized engine's own unfused answer
// (the bounds on `x + 0`, which no rule fuses), at vector sizes 1, 3 and
// 1024, alone, behind a pushed scan filter and behind a Select's earlier
// conjunct.
//
// The nullable column vn is held to the unfused vectorized answer only:
// today a comparison on it reads the NULL rows' zero slot in the
// vectorized engine and not in the reference engines (ROADMAP item 1;
// see boolpath_test.go), and fusion must keep that answer, not change it.
package enginetest

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// rangeInts are the BIGINT column's values: both int64 extremes and
// their neighbours, so a shifted strict bound or an unsigned compare
// that overflows shows.
var rangeInts = []int64{math.MinInt64, math.MinInt64 + 1, -5, -1, 0, 1, 2, 5, 9,
	math.MaxInt64 - 1, math.MaxInt64}

// rangeFloats are the DOUBLE column's values: NaN, both zeros and the
// infinities beside ordinary numbers.
var rangeFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, 0.5, -2.5, 3,
	math.Inf(1), math.Inf(-1), 1e300}

// rangeFixture builds r(k, i, d, f NOT NULL; vn NULL) over 44 rows in
// groups of four, so ranges both prune whole groups and filter inside.
func rangeFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "i", Kind: vtypes.KindI64},
		vtypes.Column{Name: "d", Kind: vtypes.KindDate}, vtypes.Column{Name: "f", Kind: vtypes.KindF64},
		nullableCol("vn", vtypes.KindI64))
	b := storage.NewBuilder("r", schema, 4)
	day := vtypes.MustParseDate("1995-06-01")
	for k := int64(0); k < 44; k++ {
		vn := vtypes.I64Value(k%9 - 3)
		if k%5 == 0 {
			vn = vtypes.NullValue(vtypes.KindI64)
		}
		row := vtypes.Row{vtypes.I64Value(k), vtypes.I64Value(rangeInts[k%int64(len(rangeInts))]),
			vtypes.DateValue(day + (k*37)%50 - 25), vtypes.F64Value(rangeFloats[k%int64(len(rangeFloats))]), vn}
		if err := b.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Put(tbl)
	return cat
}

// rangePlan plans `SELECT k FROM r WHERE where` and binds args to its
// placeholders.
func rangePlan(t *testing.T, cat *catalog.Catalog, where string, args []vtypes.Value) algebra.Node {
	t.Helper()
	text := "SELECT k FROM r WHERE " + where
	st, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	plan, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	if plan, err = algebra.BindParams(plan, args); err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return plan
}

func TestRangeFusionDifferential(t *testing.T) {
	cat := rangeFixture(t)
	i64, date, f64 := vtypes.I64Value, vtypes.DateValue, vtypes.F64Value
	day := vtypes.MustParseDate("1995-06-01")
	intBounds := [][2]vtypes.Value{
		{i64(math.MinInt64), i64(math.MaxInt64)}, {i64(math.MinInt64), i64(math.MinInt64)},
		{i64(math.MaxInt64), i64(math.MaxInt64)}, {i64(math.MinInt64), i64(0)}, {i64(0), i64(math.MaxInt64)},
		{i64(-1), i64(5)}, {i64(1), i64(1)}, {i64(5), i64(-1)}, {i64(2), i64(1)}, {i64(math.MaxInt64 - 1), i64(math.MaxInt64)},
	}
	dateBounds := [][2]vtypes.Value{
		{date(day - 10), date(day + 10)}, {date(day), date(day)}, {date(day + 5), date(day - 5)},
		{date(day - 25), date(day - 24)}, {date(day - 1000), date(day + 1000)},
	}
	floatBounds := [][2]vtypes.Value{
		{f64(math.Copysign(0, -1)), f64(0)}, {f64(0), f64(math.Copysign(0, -1))}, {f64(-2.5), f64(3)},
		{f64(math.Inf(-1)), f64(math.Inf(1))}, {f64(3), f64(-2.5)}, {f64(0.5), f64(1e300)},
	}
	type col struct {
		name   string
		bounds [][2]vtypes.Value
		strict bool // BIGINT/DATE: `>`/`<` fuse too
		refs   bool // compare with the tuple and materialized engines
	}
	cols := []col{
		{"i", intBounds, true, true},
		{"d", dateBounds, true, true},
		{"f", floatBounds, false, true},
		{"vn", intBounds, true, false},
	}
	contexts := []string{"%s", "k >= 4 AND %s", "k + 0 >= 4 AND %s"}
	ranges := 0
	for _, c := range cols {
		shapes := []string{"%[1]s >= ? AND %[1]s <= ?", "? <= %[1]s AND %[1]s <= ?", "%[1]s BETWEEN ? AND ?"}
		if c.strict {
			shapes = append(shapes, "%[1]s > ? AND %[1]s < ?", "? < %[1]s AND %[1]s <= ?", "%[1]s >= ? AND ? > %[1]s")
		}
		for _, shape := range shapes {
			for _, bd := range c.bounds {
				args := []vtypes.Value{bd[0], bd[1]}
				fused := fmt.Sprintf(shape, c.name)
				unfused := fmt.Sprintf(shape, c.name+" + 0")
				if strings.Contains(shape, "BETWEEN") {
					// The unfused reference for BETWEEN is its own pair of
					// comparisons.
					unfused = fmt.Sprintf("%[1]s + 0 >= ? AND %[1]s + 0 <= ?", c.name)
				}
				for _, ctx := range contexts {
					where := fmt.Sprintf(ctx, fused)
					want, err := boolKeys(cat, rangePlan(t, cat, fmt.Sprintf(ctx, unfused), args), 1024)
					if err != nil {
						t.Fatalf("%s %v: unfused: %v", where, args, err)
					}
					plan := rangePlan(t, cat, where, args)
					engines := []int{1024, 3, 1}
					if c.refs {
						engines = append(engines, 0, -1)
					}
					for _, vs := range engines {
						got, err := boolKeys(cat, plan, vs)
						if err != nil {
							t.Fatalf("%s %v: engine %d: %v", where, args, vs, err)
						}
						if got != want {
							t.Fatalf("WHERE %s with %v: engine %d (0 tuple, -1 materialized, else vector size) selects k = [%s], unfused vectorized [%s]",
								where, args, vs, got, want)
						}
					}
					ranges++
				}
			}
		}
	}
	// Literal bounds: a literal BETWEEN is an algebra.Between from the
	// planner, and a literal pair fuses like a bound one.
	for _, c := range []struct {
		where, unfused string
		refs           bool
	}{
		{"i BETWEEN -1 AND 5", "i + 0 >= -1 AND i + 0 <= 5", true},
		{"i BETWEEN 5 AND -1", "i + 0 >= 5 AND i + 0 <= -1", true},
		{"i > -1 AND i < 5", "i + 0 > -1 AND i + 0 < 5", true},
		{"d BETWEEN DATE '1995-05-20' AND DATE '1995-06-10'", "d + 0 >= DATE '1995-05-20' AND d + 0 <= DATE '1995-06-10'", true},
		{"d > DATE '1995-05-20' AND d < DATE '1995-06-10'", "d + 0 > DATE '1995-05-20' AND d + 0 < DATE '1995-06-10'", true},
		{"f BETWEEN -2.5 AND 3.0", "f + 0 >= -2.5 AND f + 0 <= 3.0", true},
		{"f >= 0.0 AND f <= 0.5", "f + 0 >= 0.0 AND f + 0 <= 0.5", true},
		{"vn BETWEEN -1 AND 2", "vn + 0 >= -1 AND vn + 0 <= 2", false},
		{"vn > -2 AND vn < 3", "vn + 0 > -2 AND vn + 0 < 3", false},
		// Three or more bounds intersect into one range, wherever they
		// stand among the conjuncts.
		{"i >= -1 AND i <= 5 AND i > 0", "i + 0 >= -1 AND i + 0 <= 5 AND i + 0 > 0", true},
		{"i BETWEEN -5 AND 9 AND i < 3 AND i >= -1", "i + 0 >= -5 AND i + 0 <= 9 AND i + 0 < 3 AND i + 0 >= -1", true},
		{"d <= DATE '1995-06-10' AND d > DATE '1995-05-20' AND d < DATE '1995-06-05'",
			"d + 0 <= DATE '1995-06-10' AND d + 0 > DATE '1995-05-20' AND d + 0 < DATE '1995-06-05'", true},
		{"f >= -2.5 AND f <= 3.0 AND f >= 0.0", "f + 0 >= -2.5 AND f + 0 <= 3.0 AND f + 0 >= 0.0", true},
		{"f > -2.5 AND f <= 3.0 AND f >= 0.5", "f + 0 > -2.5 AND f + 0 <= 3.0 AND f + 0 >= 0.5", true},
		{"vn >= -3 AND vn <= 4 AND vn > -1", "vn + 0 >= -3 AND vn + 0 <= 4 AND vn + 0 > -1", false},
		// An empty intersection selects nothing.
		{"i > 5 AND i < 3", "i + 0 > 5 AND i + 0 < 3", true},
		{"i >= 2 AND i <= 5 AND i < 1", "i + 0 >= 2 AND i + 0 <= 5 AND i + 0 < 1", true},
		{"f >= 3.0 AND f <= 0.5 AND f >= -2.5", "f + 0 >= 3.0 AND f + 0 <= 0.5 AND f + 0 >= -2.5", true},
		{"vn > 2 AND vn < 0 AND vn >= -1", "vn + 0 > 2 AND vn + 0 < 0 AND vn + 0 >= -1", false},
	} {
		for _, ctx := range contexts {
			where := fmt.Sprintf(ctx, c.where)
			want, err := boolKeys(cat, rangePlan(t, cat, fmt.Sprintf(ctx, c.unfused), nil), 1024)
			if err != nil {
				t.Fatalf("%s: unfused: %v", where, err)
			}
			plan := rangePlan(t, cat, where, nil)
			engines := []int{1024, 3, 1}
			if c.refs {
				engines = append(engines, 0, -1)
			}
			for _, vs := range engines {
				if got, err := boolKeys(cat, plan, vs); err != nil || got != want {
					t.Fatalf("WHERE %s: engine %d selects k = [%s] (%v), unfused vectorized [%s]", where, vs, got, err, want)
				}
			}
			ranges++
		}
	}
	if ranges < 300 {
		t.Fatalf("only %d ranges checked", ranges)
	}
}

// The range-fusion differential. The planner writes `x BETWEEN a AND b`
// as its two bounds, and xcompile compiles the bounds on one column
// within one conjunction whose intersection is closed at both ends as a
// single between pass: `x >= ? AND x <= ?` (what `x BETWEEN ? AND ?` is
// once bound), a strict pair on BIGINT/DATE shifted by one, a literal
// BETWEEN, three or more bounds, and an empty intersection. For every
// such range the fused vectorized answer must equal the tuple and
// materialized engines', and the vectorized engine's own unfused answer
// (the bounds on `x + 0`, which no rule fuses), at vector sizes 1, 3 and
// 1024, alone, behind a pushed scan filter and behind a Select's earlier
// conjunct.
//
// The nullable column vn is held to the tuple engine as well: a fused
// range over it keeps the NULL guard algebra.Known appends after the
// conjunction's bounds, so a NULL row, whose stored value is the safe
// zero inside many of the ranges, is never selected.
package enginetest

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/compress"
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
	}
	cols := []col{
		{"i", intBounds, true},
		{"d", dateBounds, true},
		{"f", floatBounds, false},
		{"vn", intBounds, true},
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
					for _, vs := range boolEngines {
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
	// One range is one plan: a literal BETWEEN, its pair written out in
	// either orientation and a bound `BETWEEN ? AND ?` explain alike.
	for _, ctx := range contexts {
		for _, col := range []struct {
			name, lo, hi string
			args         []vtypes.Value
		}{
			{"i", "-1", "5", []vtypes.Value{i64(-1), i64(5)}},
			{"d", "DATE '1995-05-20'", "DATE '1995-06-10'", []vtypes.Value{date(day - 12), date(day + 9)}},
			{"f", "-2.5", "3.0", []vtypes.Value{f64(-2.5), f64(3)}},
		} {
			bound := rangePlan(t, cat, fmt.Sprintf(ctx, col.name+" BETWEEN ? AND ?"), col.args)
			want := algebra.Explain(bound)
			for _, form := range []string{"%[1]s BETWEEN %[2]s AND %[3]s", "%[1]s >= %[2]s AND %[1]s <= %[3]s", "%[2]s <= %[1]s AND %[1]s <= %[3]s"} {
				where := fmt.Sprintf(ctx, fmt.Sprintf(form, col.name, col.lo, col.hi))
				if got := algebra.Explain(rangePlan(t, cat, where, nil)); got != want {
					t.Errorf("WHERE %s plans\n%s\nnot as the bound BETWEEN:\n%s", where, got, want)
				}
			}
		}
	}
	// Literal bounds: a literal BETWEEN is the same pair as a bound one,
	// and a literal pair fuses like it.
	for _, c := range []struct{ where, unfused string }{
		{"i BETWEEN -1 AND 5", "i + 0 >= -1 AND i + 0 <= 5"},
		{"i BETWEEN 5 AND -1", "i + 0 >= 5 AND i + 0 <= -1"},
		{"i > -1 AND i < 5", "i + 0 > -1 AND i + 0 < 5"},
		{"d BETWEEN DATE '1995-05-20' AND DATE '1995-06-10'", "d + 0 >= DATE '1995-05-20' AND d + 0 <= DATE '1995-06-10'"},
		{"d > DATE '1995-05-20' AND d < DATE '1995-06-10'", "d + 0 > DATE '1995-05-20' AND d + 0 < DATE '1995-06-10'"},
		{"f BETWEEN -2.5 AND 3.0", "f + 0 >= -2.5 AND f + 0 <= 3.0"},
		{"f >= 0.0 AND f <= 0.5", "f + 0 >= 0.0 AND f + 0 <= 0.5"},
		{"vn BETWEEN -1 AND 2", "vn + 0 >= -1 AND vn + 0 <= 2"},
		{"vn > -2 AND vn < 3", "vn + 0 > -2 AND vn + 0 < 3"},
		// Three or more bounds intersect into one range, wherever they
		// stand among the conjuncts.
		{"i >= -1 AND i <= 5 AND i > 0", "i + 0 >= -1 AND i + 0 <= 5 AND i + 0 > 0"},
		{"i BETWEEN -5 AND 9 AND i < 3 AND i >= -1", "i + 0 >= -5 AND i + 0 <= 9 AND i + 0 < 3 AND i + 0 >= -1"},
		{"d <= DATE '1995-06-10' AND d > DATE '1995-05-20' AND d < DATE '1995-06-05'",
			"d + 0 <= DATE '1995-06-10' AND d + 0 > DATE '1995-05-20' AND d + 0 < DATE '1995-06-05'"},
		{"f >= -2.5 AND f <= 3.0 AND f >= 0.0", "f + 0 >= -2.5 AND f + 0 <= 3.0 AND f + 0 >= 0.0"},
		{"f > -2.5 AND f <= 3.0 AND f >= 0.5", "f + 0 > -2.5 AND f + 0 <= 3.0 AND f + 0 >= 0.5"},
		{"vn >= -3 AND vn <= 4 AND vn > -1", "vn + 0 >= -3 AND vn + 0 <= 4 AND vn + 0 > -1"},
		// An empty intersection selects nothing.
		{"i > 5 AND i < 3", "i + 0 > 5 AND i + 0 < 3"},
		{"i >= 2 AND i <= 5 AND i < 1", "i + 0 >= 2 AND i + 0 <= 5 AND i + 0 < 1"},
		{"f >= 3.0 AND f <= 0.5 AND f >= -2.5", "f + 0 >= 3.0 AND f + 0 <= 0.5 AND f + 0 >= -2.5"},
		{"vn > 2 AND vn < 0 AND vn >= -1", "vn + 0 > 2 AND vn + 0 < 0 AND vn + 0 >= -1"},
		{"f BETWEEN 3.0 AND -2.5", "f + 0 >= 3.0 AND f + 0 <= -2.5"},
		// NOT BETWEEN lowers to the pair's negation, `x < a OR x > b`
		// (on a DOUBLE `(x >= a) = FALSE OR (x <= b) = FALSE`, which
		// keeps NaN): a disjunction, so nothing fuses.
		{"i NOT BETWEEN -1 AND 5", "NOT (i + 0 >= -1 AND i + 0 <= 5)"},
		{"d NOT BETWEEN DATE '1995-05-20' AND DATE '1995-06-10'", "NOT (d + 0 >= DATE '1995-05-20' AND d + 0 <= DATE '1995-06-10')"},
		{"f NOT BETWEEN -2.5 AND 3.0", "NOT (f + 0 >= -2.5 AND f + 0 <= 3.0)"},
		{"vn NOT BETWEEN -1 AND 2", "NOT (vn + 0 >= -1 AND vn + 0 <= 2)"},
		// A NULL bound is never true: nothing fuses, nothing is selected.
		{"i BETWEEN NULL AND 5", "i + 0 >= NULL AND i + 0 <= 5"},
		{"d BETWEEN DATE '1995-05-20' AND NULL", "d + 0 >= DATE '1995-05-20' AND d + 0 <= NULL"},
		// A computed operand is its pair over the computed value.
		{"k * 2 BETWEEN 10 AND 31", "k * 2 + 0 >= 10 AND k * 2 + 0 <= 31"},
		{"d + 3 BETWEEN DATE '1995-05-20' AND DATE '1995-06-10'", "d + 3 + 0 >= DATE '1995-05-20' AND d + 3 + 0 <= DATE '1995-06-10'"},
	} {
		for _, ctx := range contexts {
			where := fmt.Sprintf(ctx, c.where)
			want, err := boolKeys(cat, rangePlan(t, cat, fmt.Sprintf(ctx, c.unfused), nil), 1024)
			if err != nil {
				t.Fatalf("%s: unfused: %v", where, err)
			}
			plan := rangePlan(t, cat, where, nil)
			for _, vs := range boolEngines {
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

// TestRangeFusionCodedAndArena: a range over a dictionary-coded DOUBLE
// (l_discount's shape: 11 values in hundredths) and over a VARCHAR whose
// plain or FSST chunks decode to an arena fuses like any other, and every
// spelling of it selects what the tuple and materialized engines select,
// at vector sizes 1, 3 and 1024, alone and behind a Select's conjunct.
// Groups of 256 rows hold 256 distinct strings each, which stay plain;
// groups of 1024 hold more, which FSST codes smaller.
func TestRangeFusionCodedAndArena(t *testing.T) {
	for _, c := range []struct {
		groupRows int
		codec     compress.Codec
	}{{256, compress.CodecPlainStr}, {1024, compress.CodecFSST}} {
		t.Run(c.codec.String(), func(t *testing.T) { rangeFusionCodedAndArena(t, c.groupRows, c.codec) })
	}
}

func rangeFusionCodedAndArena(t *testing.T, groupRows int, codec compress.Codec) {
	schema := vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "disc", Kind: vtypes.KindF64}, vtypes.Column{Name: "s", Kind: vtypes.KindStr})
	b := storage.NewBuilder("r", schema, groupRows)
	for k := int64(0); k < 3000; k++ {
		row := vtypes.Row{vtypes.I64Value(k), vtypes.F64Value(float64(k*7%11) / 100),
			vtypes.StrValue(fmt.Sprintf("s%04d", k*7919%3000))}
		if err := b.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for g := range tbl.Groups() {
		if c := tbl.Meta.Groups[g].Cols; c[1].Codec != compress.CodecDictF64 || c[2].Codec != codec && tbl.GroupRows(g) == groupRows {
			t.Fatalf("group %d codes disc %v and s %v", g, c[1].Codec, c[2].Codec)
		}
	}
	cat := catalog.New()
	cat.Put(tbl)
	for _, where := range []string{
		"disc BETWEEN 0.05 AND 0.07", "disc >= 0.05 AND disc <= 0.07", "0.05 <= disc AND disc <= 0.07",
		"disc BETWEEN 0.07 AND 0.05", "disc NOT BETWEEN 0.05 AND 0.07", "disc BETWEEN 0.05 AND NULL",
		"disc * 2 BETWEEN 0.1 AND 0.14",
		"s BETWEEN 's0100' AND 's0420'", "s >= 's0100' AND s <= 's0420'", "'s0100' <= s AND s <= 's0420'",
		"s BETWEEN 's0420' AND 's0100'", "s NOT BETWEEN 's0100' AND 's2900'", "s BETWEEN NULL AND 's0420'",
		"s >= 's0100' AND s <= 's0420' AND s > 's0200'", "disc >= 0.02 AND s <= 's0420' AND disc <= 0.05",
	} {
		for _, ctx := range []string{"%s", "k + 0 >= 400 AND %s"} {
			w := fmt.Sprintf(ctx, where)
			plan := rangePlan(t, cat, w, nil)
			want, err := boolKeys(cat, plan, 0)
			if err != nil {
				t.Fatalf("WHERE %s: tuple engine: %v", w, err)
			}
			for _, vs := range []int{1024, 3, 1, -1} {
				if got, err := boolKeys(cat, plan, vs); err != nil || got != want {
					t.Fatalf("WHERE %s: engine %d selects k = [%s] (%v), the tuple engine [%s]", w, vs, got, err, want)
				}
			}
		}
	}
}

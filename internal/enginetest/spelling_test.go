// The spelling-equivalence test. Operand types are settled once, in the
// planner (sql's unify): where a BIGINT or DATE meets a DOUBLE the BIGINT
// side widens, a NULL literal takes its sibling's kind, and a string
// beside a DATE parses as one. So equivalent spellings of a predicate
// plan to equivalent comparisons, whatever the literals' classes:
//
//	x BETWEEN a AND b   ≡  x >= a AND x <= b
//	x IN (a, b)         ≡  x = a OR x = b
//	x NOT IN (a, b)     ≡  x <> a AND x <> b
//	x op NULL           selects nothing
//
// and each selects the rows SQL says, computed here in Go from exact
// values, on every engine.
package enginetest

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// spellRows is the fixture's row count: t(k BIGINT, f DOUBLE, d DATE)
// with k = 0..11, f = k/2 and d = 1995-01-01 + k days.
const spellRows = 12

var spellEpoch = vtypes.MustParseDate("1995-01-01")

func spellFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	b := storage.NewBuilder("t", vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "f", Kind: vtypes.KindF64}, vtypes.Column{Name: "d", Kind: vtypes.KindDate}), 4)
	for k := int64(0); k < spellRows; k++ {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(k), vtypes.F64Value(float64(k) / 2), vtypes.DateValue(spellEpoch + k)}); err != nil {
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

// spellLit is a literal as SQL text and the exact value it denotes (a
// DATE's in days since spellEpoch); null for NULL.
type spellLit struct {
	text string
	val  float64
	null bool
}

// spellCol is a column, its value on row k, and the literals it meets:
// integral and fractional, of both numeric classes, and NULL.
type spellCol struct {
	name string
	val  func(k int64) float64
	lits []spellLit
}

var spellNull = spellLit{text: "NULL", null: true}

var spellCols = []spellCol{
	{"k", func(k int64) float64 { return float64(k) }, []spellLit{
		{"2", 2, false}, {"5", 5, false}, {"2.0", 2, false}, {"2.5", 2.5, false}, {"7.5", 7.5, false}, {"-1.5", -1.5, false}, spellNull}},
	{"f", func(k int64) float64 { return float64(k) / 2 }, []spellLit{
		{"1", 1, false}, {"3", 3, false}, {"-1", -1, false}, {"1.5", 1.5, false}, {"2.0", 2, false}, {"2.25", 2.25, false}, spellNull}},
	{"d", func(k int64) float64 { return float64(k) }, []spellLit{
		{"DATE '1995-01-03'", 2, false}, {"'1995-01-06'", 5, false}, {"DATE '1995-01-10'", 9, false}, spellNull}},
}

// spellKeys renders, as boolKeys does, the keys of the rows where keep
// holds.
func spellKeys(keep func(k int64) bool) string {
	var keys []string
	for k := int64(0); k < spellRows; k++ {
		if keep(k) {
			keys = append(keys, strconv.FormatInt(k, 10))
		}
	}
	slices.Sort(keys)
	return strings.Join(keys, " ")
}

// cmpTrue is `x op lit` in SQL: never true beside NULL.
func cmpTrue(x float64, op string, l spellLit) bool {
	if l.null {
		return false
	}
	switch op {
	case "=":
		return x == l.val
	case "<>":
		return x != l.val
	case "<":
		return x < l.val
	case "<=":
		return x <= l.val
	case ">":
		return x > l.val
	}
	return x >= l.val
}

// spellEngines are boolKeys's engines: tuple, materialized, and
// vectorized at vector sizes 1, 3 and 1024.
var spellEngines = []int{0, -1, 1, 3, 1024}

// TestEquivalentSpellingsAgree: each spelling of each predicate selects
// the rows Go computes from exact values, on every engine.
func TestEquivalentSpellingsAgree(t *testing.T) {
	cat := spellFixture(t)
	check := func(where, want string) {
		t.Helper()
		plan := boolPlan(t, cat, where)
		for _, vs := range spellEngines {
			got, err := boolKeys(cat, plan, vs)
			if err != nil {
				t.Fatalf("WHERE %s: engine %d: %v", where, vs, err)
			}
			if got != want {
				t.Fatalf("WHERE %s: engine %d selects k = [%s], want [%s]\n%s", where, vs, got, want, algebra.Explain(plan))
			}
		}
	}
	for _, c := range spellCols {
		x := c.val
		for _, a := range c.lits {
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				want := spellKeys(func(k int64) bool { return cmpTrue(x(k), op, a) })
				check(fmt.Sprintf("%s %s %s", c.name, op, a.text), want)
				flipped := map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
				check(fmt.Sprintf("%s %s %s", a.text, flipped, c.name), want)
			}
			for _, b := range c.lits {
				between := spellKeys(func(k int64) bool { return cmpTrue(x(k), ">=", a) && cmpTrue(x(k), "<=", b) })
				check(fmt.Sprintf("%s BETWEEN %s AND %s", c.name, a.text, b.text), between)
				check(fmt.Sprintf("%s >= %s AND %s <= %s", c.name, a.text, c.name, b.text), between)
				in := spellKeys(func(k int64) bool { return cmpTrue(x(k), "=", a) || cmpTrue(x(k), "=", b) })
				check(fmt.Sprintf("%s IN (%s, %s)", c.name, a.text, b.text), in)
				check(fmt.Sprintf("%s = %s OR %s = %s", c.name, a.text, c.name, b.text), in)
				notIn := spellKeys(func(k int64) bool { return cmpTrue(x(k), "<>", a) && cmpTrue(x(k), "<>", b) })
				check(fmt.Sprintf("%s NOT IN (%s, %s)", c.name, a.text, b.text), notIn)
				check(fmt.Sprintf("%s <> %s AND %s <> %s", c.name, a.text, c.name, b.text), notIn)
				check(fmt.Sprintf("NOT (%s IN (%s, %s))", c.name, a.text, b.text), notIn)
			}
		}
	}
}

// TestNullLiteralValues: a NULL literal beside a DOUBLE is a DOUBLE NULL,
// not 0.0, so the tuple engine answers NULL for `f + NULL` as it does for
// `k + NULL`. The vectorized and materialized engines do not yet carry a
// NULL through arithmetic or CASE (ROADMAP item 1): they compute over the
// NULL's safe value, 0, and agree with each other. Pinned, not skipped.
func TestNullLiteralValues(t *testing.T) {
	cat := spellFixture(t)
	for _, c := range []struct {
		e         string
		tuple     func(k int64) string // "NULL" or the value
		safeValue func(k int64) string
	}{
		{"f + NULL", func(int64) string { return "NULL" }, func(k int64) string { return fmt.Sprintf("%.6f", float64(k)/2) }},
		{"k + NULL", func(int64) string { return "NULL" }, func(k int64) string { return strconv.FormatInt(k, 10) }},
		{"CASE WHEN k = 1 THEN f ELSE NULL END",
			func(k int64) string {
				if k == 1 {
					return "0.500000"
				}
				return "NULL"
			},
			func(k int64) string {
				if k == 1 {
					return "0.500000"
				}
				return "0.000000"
			}},
	} {
		text := "SELECT k, " + c.e + " AS x FROM t"
		st, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for _, vs := range spellEngines {
			got, err := boolKeys(cat, plan, vs)
			if err != nil {
				t.Fatalf("%s: engine %d: %v", text, vs, err)
			}
			val := c.safeValue
			if vs == 0 {
				val = c.tuple
			}
			var want []string
			for k := int64(0); k < spellRows; k++ {
				want = append(want, strconv.FormatInt(k, 10)+"|"+val(k))
			}
			slices.Sort(want)
			if got != strings.Join(want, " ") {
				t.Errorf("%s: engine %d answers [%s], want [%s]", text, vs, got, strings.Join(want, " "))
			}
		}
	}
}

// The boolean-path equivalence test. A boolean scalar has one compiler
// (xcompile.pred) and one kernel family (expr.Pred); a boolean used as a
// value is that predicate behind expr.NewPredMap. So for any predicate p
//
//	WHERE p  ≡  WHERE CASE WHEN p THEN 1 ELSE 0 END = 1
//
// on the vectorized engine at every vector size, and both ≡ the tuple and
// materialized engines — with p alone on a dense batch, behind a pushed
// scan filter (the batch arrives with a selection in its own buffer),
// behind a non-sargable conjunct (the Select's first conjunct narrows
// before p runs), with and without live PDT deltas.
//
// The fixture has a nullable column of every kind, and its VARCHAR one
// has dictionary, plain and FSST chunks. NULL in a predicate is one rule,
// algebra.Known, which the vectorized and materialized engines apply and
// the tuple engine does not: it reads SQL's three-valued logic from the
// boxed values itself. So the tuple engine is the oracle for every
// predicate, and SQL's ternary logic partitioning holds on every engine:
// WHERE p, WHERE NOT p and WHERE (p) IS NULL are disjoint and together
// select every row (TestBooleanPathRandomTrees checks it). No engine
// computes NOT: the planner writes every predicate in negation normal
// form (algebra.Negate).
package enginetest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/compress"
	"vectorwise/internal/core"
	"vectorwise/internal/matengine"
	"vectorwise/internal/pdt"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

var boolFruit = []string{"apple", "apricot", "banana", "cherry", "avocado"}

// boolWords make the FSST group's comment-like strings.
var boolWords = []string{"furiously", "regular", "deposits", "quickly", "final", "accounts", "pending", "blithely"}

var boolEpoch = vtypes.MustParseDate("1995-01-01")

// Columns of boolFixture's table t.
const (
	colV  = 4 // v BIGINT NULL
	colFn = 5 // fn DOUBLE NULL
	colDn = 6 // dn DATE NULL
	colBn = 7 // bn BOOLEAN NULL
	colCn = 8 // cn VARCHAR NULL
)

// boolRow is row k of the fixture: g = k % 5, f = k % 7 + 0.5, s a fruit;
// v = NULL on every fourth row, else k % 6; fn = NULL on every third,
// else k % 4 - 0.5; dn = NULL where k % 5 = 2, else 1995-01-01 plus k % 7
// days; bn = NULL where k % 4 = 1, else whether 3 divides k. cn is NULL
// on some rows of every group and "" on others: of the first twenty rows
// the groups 0, 2 and 4 hold only "" and "abracadabra" (dictionary
// chunks) and the
// groups 1 and 3 distinct fruit phrases (plain chunks); later rows hold
// distinct comment-like strings (the FSST group).
func boolRow(k int64) vtypes.Row {
	null := vtypes.NullValue
	v, fn, dn, bn := vtypes.I64Value(k%6), vtypes.F64Value(float64(k%4)-0.5), vtypes.DateValue(boolEpoch+k%7), vtypes.BoolValue(k%3 == 0)
	if k%4 == 0 {
		v = null(vtypes.KindI64)
	}
	if k%3 == 0 {
		fn = null(vtypes.KindF64)
	}
	if k%5 == 2 {
		dn = null(vtypes.KindDate)
	}
	if k%4 == 1 {
		bn = null(vtypes.KindBool)
	}
	var cn vtypes.Value
	switch {
	case k >= 20 && k%9 == 0, k < 20 && k%6 == 1:
		cn = null(vtypes.KindStr)
	case k >= 20 && k%13 == 0, k < 20 && k%4 == 0:
		cn = vtypes.StrValue("")
	case k >= 20:
		cn = vtypes.StrValue(fmt.Sprintf("%s %s %s the %s %d", boolWords[k%8], boolWords[k/8%8], boolWords[k/64%8], boolFruit[k%5], k))
	case k/4%2 == 0:
		cn = vtypes.StrValue("abracadabra")
	default:
		cn = vtypes.StrValue(fmt.Sprintf("%s tart number %d", boolFruit[k%5], k))
	}
	return vtypes.Row{vtypes.I64Value(k), vtypes.I64Value(k % 5), vtypes.F64Value(float64(k%7) + 0.5),
		vtypes.StrValue(boolFruit[k%5]), v, fn, dn, bn, cn}
}

// boolRows is the row count of boolFixture's base table: twenty rows in
// groups of four, so `k >= 4` both prunes and filters in the scan; with
// wide, 340 more in one group, whose VARCHAR chunk is FSST.
func boolRows(wide bool) int64 {
	if wide {
		return 360
	}
	return 20
}

// boolFixture builds t(k, g, f, s NOT NULL; v, fn, dn, bn, cn NULL) over
// boolRows(wide) rows. With deltas, a live PDT deletes and appends rows
// and writes values, NULLs among them, into every nullable column.
func boolFixture(t *testing.T, deltas, wide bool) *catalog.Catalog {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "g", Kind: vtypes.KindI64},
		vtypes.Column{Name: "f", Kind: vtypes.KindF64}, vtypes.Column{Name: "s", Kind: vtypes.KindStr},
		nullableCol("v", vtypes.KindI64), nullableCol("fn", vtypes.KindF64), nullableCol("dn", vtypes.KindDate),
		nullableCol("bn", vtypes.KindBool), nullableCol("cn", vtypes.KindStr))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	b := storage.NewBuilder("t", schema, 4)
	for k := int64(0); k < 20; k++ {
		must(b.AppendRow(boolRow(k)))
	}
	if wide {
		fb := storage.NewBuilder("t", schema, 0)
		for k := int64(20); k < boolRows(true); k++ {
			must(fb.AppendRow(boolRow(k)))
		}
		tail, err := fb.Finish()
		must(err)
		must(b.AppendTable(tail))
	}
	tbl, err := b.Finish()
	must(err)
	for g := range tbl.Groups() {
		want := compress.CodecDict
		switch {
		case g == 5:
			want = compress.CodecFSST
		case g%2 == 1:
			want = compress.CodecPlainStr
		}
		if got := tbl.Meta.Groups[g].Cols[colCn].Codec; got != want {
			t.Fatalf("group %d codes cn %v, want %v", g, got, want)
		}
	}
	cat := catalog.New()
	cat.Put(tbl)
	if !deltas {
		return cat
	}
	null := vtypes.NullValue
	d := pdt.New(schema, tbl.Rows())
	must(d.Delete(5))
	must(d.Delete(16)) // position after the first delete: k = 17
	must(d.Modify(8, 1, vtypes.I64Value(3)))
	must(d.Modify(10, colV, null(vtypes.KindI64)))
	must(d.Modify(1, colV, vtypes.I64Value(0)))
	must(d.Modify(2, colFn, null(vtypes.KindF64)))
	must(d.Modify(3, colFn, vtypes.F64Value(0)))
	must(d.Modify(4, colDn, null(vtypes.KindDate)))
	must(d.Modify(6, colBn, null(vtypes.KindBool)))
	must(d.Modify(7, colBn, vtypes.BoolValue(true)))
	must(d.Modify(9, colCn, null(vtypes.KindStr)))
	must(d.Modify(0, colCn, vtypes.StrValue("abracadabra")))
	must(d.Modify(11, colCn, vtypes.StrValue("")))
	if wide {
		must(d.Modify(30, colCn, null(vtypes.KindStr)))
		must(d.Modify(31, colCn, vtypes.StrValue("")))
	}
	n := boolRows(wide)
	must(d.Append(boolRow(n + 1)))
	must(d.Append(boolRow(n + 4)))
	must(cat.SetLayers("t", []*pdt.PDT{d}))
	return cat
}

// boolContexts put the predicate (i) alone, (ii) behind a pushed scan
// filter, (iii) behind a conjunct the scan cannot take.
var boolContexts = []string{"%s", "k >= 4 AND (%s)", "k + 0 >= 4 AND (%s)"}

// boolEngines are boolKeys's engines: tuple, materialized, and
// vectorized at vector sizes 1, 3 and 1024.
var boolEngines = []int{0, -1, 1, 3, 1024}

// boolKeys runs a plan of `SELECT k FROM t WHERE …` on one engine (vecSize 0 =
// tuple, -1 = materialized) and renders the sorted keys.
func boolKeys(cat *catalog.Catalog, plan algebra.Node, vecSize int) (string, error) {
	var rows []vtypes.Row
	var err error
	switch vecSize {
	case 0:
		rows, err = tupleengine.Run(plan, cat)
	case -1:
		rows, err = matengine.Run(plan, cat)
	default:
		var op core.Operator
		if op, err = xcompile.Compile(plan, cat, xcompile.Options{VecSize: vecSize}); err == nil {
			rows, err = core.Collect(op)
		}
	}
	if err != nil {
		return "", err
	}
	return strings.Join(render(rows), " "), nil
}

func boolPlan(t *testing.T, cat *catalog.Catalog, where string) algebra.Node {
	t.Helper()
	text := "SELECT k FROM t WHERE " + where
	st, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	plan, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return plan
}

// checkBoolEquivalence asserts the evaluations of p agree in every
// context with the tuple engine's WHERE p, and returns the keys p alone
// selects.
func checkBoolEquivalence(t *testing.T, cat *catalog.Catalog, p string) string {
	t.Helper()
	type run struct {
		name    string
		plan    algebra.Node
		vecSize int
	}
	var alone string
	for i, ctx := range boolContexts {
		where := fmt.Sprintf(ctx, p)
		asCase := fmt.Sprintf(ctx, "CASE WHEN "+p+" THEN 1 ELSE 0 END = 1")
		plan, casePlan := boolPlan(t, cat, where), boolPlan(t, cat, asCase)
		runs := []run{
			{"tuple WHERE p", plan, 0}, {"tuple WHERE CASE WHEN p", casePlan, 0},
			{"materialized WHERE p", plan, -1}, {"materialized WHERE CASE WHEN p", casePlan, -1},
			{"vectorized WHERE p, vectors of 1024", plan, 1024},
			{"vectorized WHERE p, vectors of 3", plan, 3},
			{"vectorized WHERE p, vectors of 1", plan, 1},
			{"vectorized WHERE CASE WHEN p, vectors of 1024", casePlan, 1024},
			{"vectorized WHERE CASE WHEN p, vectors of 3", casePlan, 3},
			{"vectorized WHERE CASE WHEN p, vectors of 1", casePlan, 1},
		}
		var want string
		for j, r := range runs {
			got, err := boolKeys(cat, r.plan, r.vecSize)
			if err != nil {
				t.Fatalf("WHERE %s: %s: %v", where, r.name, err)
			}
			if j == 0 {
				want = got
			}
			if got != want {
				t.Fatalf("WHERE %s: %s selects k = [%s], %s [%s]\n%s",
					where, r.name, got, runs[0].name, want, algebra.Explain(r.plan))
			}
		}
		if i == 0 {
			alone = want
		}
	}
	return alone
}

// TestBooleanPathFixtures: the statements that were wrong or diverged
// before there was one boolean path, or before NULL was one rule, with
// the rows each must select on the delta-free fixture (rendered keys sort
// as text). Every answer is SQL's.
func TestBooleanPathFixtures(t *testing.T) {
	cat, withDeltas := boolFixture(t, false, false), boolFixture(t, true, false)
	const all = "0 1 10 11 12 13 14 15 16 17 18 19 2 3 4 5 6 7 8 9"
	for _, c := range []struct{ p, want string }{
		// OR / NOT below an earlier filter: the parent re-installed a
		// selection its first disjunct had overwritten.
		{"k >= 4 AND (g = 3 OR g = 1)", "11 13 16 18 6 8"},
		{"k >= 4 AND NOT (g = 3 OR g = 1)", "10 12 14 15 17 19 4 5 7 9"},
		{"g = 3 OR g = 1", "1 11 13 16 18 3 6 8"},
		{"NOT (g = 3 OR g = 1) OR k = 3", "0 10 12 14 15 17 19 2 3 4 5 7 9"},
		// A NULL literal is never true, as a filter or as a value.
		{"k = NULL", ""},
		{"NULL <> k", ""},
		{"k IN (NULL)", ""},
		{"g IN (NULL, 3)", "13 18 3 8"},
		{"k BETWEEN NULL AND 5", ""},
		{"k BETWEEN 2 AND NULL", ""},
		{"NOT (k = NULL)", ""}, // the planner's k <> NULL
		{"NOT (k IN (NULL))", ""},
		{"NOT (k = NULL OR g = 1)", ""},
		{"NOT (k BETWEEN NULL AND 5) AND k < 3", ""},
		{"f = NULL", ""}, // the NULL is a DOUBLE NULL, not 0.0
		{"f <> NULL", ""},
		{"NULL <= f", ""},
		// A NULL literal where a boolean stands is unknown: a BOOLEAN NULL.
		{"NULL OR k = 3", "3"},
		{"k = 3 AND NULL", ""},
		{"NOT (NULL) OR k = 3", "3"},
		// A boolean literal selects every row or none.
		{"1 = 2", ""},
		{"NOT (1 = 1)", ""},
		{"1 = 1 OR k = 3", all},
		// IS [NOT] NULL compiles as a value too.
		{"v IS NULL", "0 12 16 4 8"},
		{"v IS NOT NULL", "1 10 11 13 14 15 17 18 19 2 3 5 6 7 9"},
		{"k IS NULL", ""},
		{"v IS NULL OR g = 1", "0 1 11 12 16 4 6 8"},
		// Integer column against a float literal: compared as DOUBLE.
		{"k = 1.0", "1"},
		{"k = 1.5", ""},
		{"k < 2.5", "0 1 2"},
		{"2.5 > k", "0 1 2"},
		{"g >= 3.5 AND k < 10", "4 9"},
		// A comparison with a NULL operand is unknown, never true: the
		// safe value under a NULL (0, 0.0, 1970-01-01, FALSE, "") is never
		// read as the row's value.
		{"v > 4", "11 17 5"},
		{"v = 0", "18 6"},
		{"NOT (v > 0)", "18 6"},
		{"v <> 1 AND k < 8", "2 3 5 6"},
		{"v + 1 > 0", "1 10 11 13 14 15 17 18 19 2 3 5 6 7 9"},
		{"v BETWEEN 0 AND 3", "1 13 14 15 18 19 2 3 6 7 9"},
		{"v IN (0, 7) OR v NOT IN (1, 2, 3, 4, 5)", "18 6"},
		{"v NOT IN (1, NULL)", ""},
		{"fn < 1.0", "1 13 16 17 4 5 8"},
		{"fn = 0.0", ""},
		{"NOT (fn >= 1.0)", "1 13 16 17 4 5 8"},
		{"dn < DATE '1995-01-03'", "0 1 14 15 8"},
		{"dn IS NULL", "12 17 2 7"},
		{"bn", "0 12 15 18 3 6"},
		{"NOT bn", "10 11 14 16 19 2 4 7 8"},
		{"bn = FALSE OR bn IS NULL", "1 10 11 13 14 16 17 19 2 4 5 7 8 9"},
		{"cn = ''", "0 12 16 4 8"},
		{"cn <> 'abracadabra'", "0 12 14 15 16 4 5 6 8"},
		{"cn LIKE 'a%'", "10 11 14 15 17 18 2 3 5 6 9"},
		{"cn NOT LIKE '%b%'", "0 12 16 4 8"},
		{"cn IN ('', 'x')", "0 12 16 4 8"},
		// IS NULL of a computed value or of a predicate: NULL exactly where
		// an operand is.
		{"(v > 0) IS NULL", "0 12 16 4 8"},
		{"(v + g) IS NOT NULL AND k < 6", "1 2 3 5"},
		{"(cn LIKE 'a%') IS NULL", "1 13 19 7"},
		{"(v > 0 AND k > 10) IS NULL", "12 16"},
		{"(v > 0 OR k > 10) IS NULL", "0 4 8"},
		{"(CASE WHEN g = 1 THEN v ELSE k END > 2) IS NULL", "16"},
		{"(CASE WHEN g = 1 THEN k ELSE v END > 2) IS NULL", "0 12 4 8"},
	} {
		t.Run(c.p, func(t *testing.T) {
			if got := checkBoolEquivalence(t, cat, c.p); got != c.want {
				t.Errorf("WHERE %s selects k = [%s], want [%s]", c.p, got, c.want)
			}
			checkBoolEquivalence(t, withDeltas, c.p)
		})
	}
}

// boolGen draws boolean trees over every leaf shape the grammar has,
// nullable columns of every kind and NULL literals among them.
type boolGen struct{ rng *rand.Rand }

func (g *boolGen) pick(ss ...string) string { return ss[g.rng.Intn(len(ss))] }

func (g *boolGen) leaf() string {
	op := g.pick("=", "<>", "<", "<=", ">", ">=")
	n := g.rng.Intn(22)
	switch g.rng.Intn(20) {
	case 0:
		return fmt.Sprintf("k %s %d", op, n)
	case 1:
		return fmt.Sprintf("g %s %d", op, n%5)
	case 2:
		return fmt.Sprintf("f %s %d.5", op, n%7)
	case 3: // int column, float literal; float column, int literal
		return g.pick(fmt.Sprintf("k %s %d.0", op, n), fmt.Sprintf("k %s %d.5", op, n), fmt.Sprintf("f %s %d", op, n%7), fmt.Sprintf("%d.5 %s g", n%5, op))
	case 4:
		return fmt.Sprintf("s %s '%s'", op, g.pick(boolFruit...))
	case 5: // column against column, literal on the left
		return g.pick("k "+op+" g", "k "+op+" f", "f "+op+" g", fmt.Sprintf("%d %s k", n, op))
	case 6:
		return g.pick("k = NULL", "g <> NULL", "NULL < f", "s = NULL", "k IN (NULL)", "g IN (NULL, 2)", "k BETWEEN NULL AND 9",
			"g BETWEEN 1 AND NULL", "v IN (1, NULL)", "NULL", "cn = NULL")
	case 7:
		return g.pick(fmt.Sprintf("k BETWEEN %d AND %d", n/2, n), "f BETWEEN 1.5 AND 4.5", "s BETWEEN 'apricot' AND 'banana'", "k BETWEEN 9 AND 3")
	case 8:
		return g.pick(fmt.Sprintf("g IN (%d, %d)", n%5, (n+2)%5), fmt.Sprintf("k IN (%d, 3, 7, 40)", n), "s IN ('apple', 'cherry')", "s IN ('kiwi')")
	case 9:
		return "s " + g.pick("LIKE", "NOT LIKE") + " " + g.pick("'a%'", "'%an%'", "'ch_rry'", "'%o'", "'apple'", "'%'")
	case 10:
		return g.pick("v", "fn", "dn", "bn", "cn", "k", "v + g", "fn * 2.0", "cn LIKE 'a%'", "v > 2", "bn AND v > 2") + " IS " + g.pick("NULL", "NOT NULL")
	case 11: // the nullable BIGINT
		return g.pick(fmt.Sprintf("v %s %d", op, n%6), "g "+op+" v", "v IN (0, 2)", "v BETWEEN 0 AND 3", fmt.Sprintf("v + 1 %s %d", op, n%6), "v "+op+" k - 10")
	case 12: // the nullable DOUBLE, NaN-free
		return g.pick(fmt.Sprintf("fn %s %d.5", op, n%4-1), "fn "+op+" 0.0", "fn BETWEEN -1.0 AND 1.0", "fn IN (0.5, 2.5)", "fn * 2.0 "+op+" f", "fn = fn")
	case 13: // the nullable DATE
		return g.pick(fmt.Sprintf("dn %s DATE '1995-01-0%d'", op, n%7+1), "dn BETWEEN DATE '1995-01-02' AND DATE '1995-01-05'",
			fmt.Sprintf("dn + %d %s DATE '1995-01-06'", n%4, op), "YEAR(dn) = 1995")
	case 14: // the nullable BOOLEAN
		return g.pick("bn", "bn = TRUE", "bn <> FALSE", "bn = (k > 5)")
	case 15: // the nullable VARCHAR over dictionary, plain and FSST chunks
		return g.pick("cn "+op+" ''", "cn "+op+" 'abracadabra'", fmt.Sprintf("cn %s '%s tart number %d'", op, boolFruit[n%5], n), "cn IN ('', 'abracadabra')")
	case 16:
		return "cn " + g.pick("LIKE", "NOT LIKE") + " " + g.pick("'a%'", "'%b'", "'%the%'", "'%regular%'", "''", "'%'")
	case 17: // a CASE under an atom: its NULL is its chosen arm's
		return g.pick("CASE WHEN g = 1 THEN v ELSE k END > 2", "CASE WHEN v > 2 THEN k ELSE v END < 3", "CASE WHEN bn THEN fn ELSE f END < 2.0")
	default:
		return fmt.Sprintf("k + g %s %d", op, n)
	}
}

func (g *boolGen) tree(depth int) string {
	if depth == 0 || g.rng.Intn(4) == 0 {
		return g.leaf()
	}
	switch g.rng.Intn(5) {
	case 0:
		return "NOT (" + g.tree(depth-1) + ")"
	case 1, 2:
		return "(" + g.tree(depth-1) + ") OR (" + g.tree(depth-1) + ")"
	default:
		return "(" + g.tree(depth-1) + ") AND (" + g.tree(depth-1) + ")"
	}
}

const boolTrees = 400

// TestBooleanPathRandomTrees: seeded random trees over the wide fixture,
// whose VARCHAR chunks are of every codec, the same equivalence; and
// every tree partitions the rows three ways with its negation and its
// IS NULL (checkPartition).
func TestBooleanPathRandomTrees(t *testing.T) {
	cats := []*catalog.Catalog{boolFixture(t, false, true), boolFixture(t, true, true)}
	g := &boolGen{rng: rand.New(rand.NewSource(26))}
	selective, unknown := 0, 0
	for i := 0; i < boolTrees; i++ {
		p := g.tree(3)
		got := checkBoolEquivalence(t, cats[i%2], p)
		if n := len(strings.Fields(got)); n > 0 && n < int(boolRows(true)) {
			selective++
		}
		for _, cat := range cats {
			if counts := checkPartition(t, cat, func(where string) algebra.Node { return boolPlan(t, cat, where) }, p); counts[0][2] > 0 {
				unknown++
			}
		}
	}
	if selective < boolTrees/3 || unknown < boolTrees/3 {
		t.Fatalf("of %d trees %d select some but not all rows and %d are unknown on some row: the generator is degenerate",
			boolTrees, selective, unknown/2)
	}
}

// checkPartition asserts that plan's `SELECT k … WHERE p`, the same under
// NOT (p) and under (p) IS NULL are disjoint and together select every
// row, on the tuple and materialized engines and the vectorized one at
// vector sizes 1, 3 and 1024 (k is a key). It returns the rows each of
// the three selects, by boolKeys's engine number.
func checkPartition(t *testing.T, cat *catalog.Catalog, plan func(where string) algebra.Node, p string) map[int][3]int {
	t.Helper()
	parts := []algebra.Node{plan(p), plan("NOT (" + p + ")"), plan("(" + p + ") IS NULL")}
	all := plan("TRUE")
	counts := make(map[int][3]int)
	for _, vs := range boolEngines {
		var keys [3][]string
		var union []string
		for j, n := range parts {
			got, err := boolKeys(cat, n, vs)
			if err != nil {
				t.Fatalf("WHERE %s: engine %d: %v", p, vs, err)
			}
			keys[j] = strings.Fields(got)
			union = append(union, keys[j]...)
		}
		got, err := boolKeys(cat, all, vs)
		if err != nil {
			t.Fatalf("engine %d: %v", vs, err)
		}
		slices.Sort(union)
		if want := strings.Fields(got); !slices.Equal(union, want) {
			t.Fatalf("engine %d: WHERE %s selects [%s], its NOT [%s] and its IS NULL [%s]: not a partition of [%s]\n%s",
				vs, p, strings.Join(keys[0], " "), strings.Join(keys[1], " "), strings.Join(keys[2], " "), strings.Join(want, " "), algebra.Explain(parts[1]))
		}
		counts[vs] = [3]int{len(keys[0]), len(keys[1]), len(keys[2])}
	}
	return counts
}

// TestNegationKeepsNaN: a DOUBLE ordering comparison negates as
// `(f < c) = FALSE`, not as its complement, so a NaN row, which fails
// both f < c and f >= c, is selected by NOT (f < c) on the engines that
// compare as IEEE does; the tuple engine orders NaN below every number
// (vtypes.Value.Compare), and partitions as well.
func TestNegationKeepsNaN(t *testing.T) {
	cat := rangeFixture(t)
	counts := checkPartition(t, cat, func(where string) algebra.Node { return rangePlan(t, cat, where, nil) }, "f < 1.0")
	for vs, want := range map[int][3]int{0: {30, 14, 0}, -1: {25, 19, 0}, 1: {25, 19, 0}, 3: {25, 19, 0}, 1024: {25, 19, 0}} {
		if counts[vs] != want {
			t.Errorf("engine %d: f < 1.0, its NOT and its IS NULL select %v rows, want %v", vs, counts[vs], want)
		}
	}
}

// probeFixture is ROADMAP item 1's probe table:
// t(k BIGINT, v BIGINT NULL, f DOUBLE NULL, c VARCHAR NULL) =
// (1,NULL,NULL,NULL), (1,NULL,2.0,”), (2,5,1.0,'a'). With deltas, the
// NULLs are written by a live PDT: the stable image holds the first and
// last rows without them, and the PDT writes the first row's NULLs and
// inserts the second.
func probeFixture(t *testing.T, deltas bool) *catalog.Catalog {
	t.Helper()
	schema := vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		nullableCol("v", vtypes.KindI64), nullableCol("f", vtypes.KindF64), nullableCol("c", vtypes.KindStr))
	null := vtypes.NullValue
	rows := []vtypes.Row{
		{vtypes.I64Value(1), null(vtypes.KindI64), null(vtypes.KindF64), null(vtypes.KindStr)},
		{vtypes.I64Value(1), null(vtypes.KindI64), vtypes.F64Value(2), vtypes.StrValue("")},
		{vtypes.I64Value(2), vtypes.I64Value(5), vtypes.F64Value(1), vtypes.StrValue("a")},
	}
	base := rows
	if deltas {
		base = []vtypes.Row{{vtypes.I64Value(1), vtypes.I64Value(7), vtypes.F64Value(3), vtypes.StrValue("z")}, rows[2]}
	}
	b := storage.NewBuilder("t", schema, 4)
	for _, r := range base {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Put(tbl)
	if deltas {
		d := pdt.New(schema, tbl.Rows())
		for c := 1; c < 4; c++ {
			if err := d.Modify(0, c, rows[0][c]); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Insert(1, rows[1]); err != nil {
			t.Fatal(err)
		}
		if err := cat.SetLayers("t", []*pdt.PDT{d}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// probeRows are the rows of item 1's probe table that every engine
// answers as SQL does: a statement over probeFixture and its one-line
// answer. internal/cluster's TestDistributeProbeTable repeats the
// predicates through a two-shard cluster.
var probeRows = []struct{ q, want string }{
	{"SELECT COUNT(*) FROM t WHERE v NOT IN (2, NULL)", "0"},
	{"SELECT COUNT(*) FROM t WHERE NULL = NULL", "0"},
	{"SELECT COUNT(*) FROM t WHERE NULL < 1", "0"},
	{"SELECT COUNT(*) FROM t WHERE 1 <> NULL", "0"},
	{"SELECT COUNT(*) FROM t WHERE NULL <= NULL OR k = 7", "0"},
	{"SELECT SUM(CASE WHEN NULL = NULL THEN 1 ELSE 0 END) FROM t", "0"},
	{"SELECT COUNT(*) FROM t WHERE NULL OR k = 2", "1"},
	{"SELECT COUNT(*) FROM t WHERE k = 2 AND NULL", "0"},
	{"SELECT SUM(CASE WHEN NULL THEN 1 ELSE 0 END) FROM t", "0"},
	{"SELECT COUNT(*) FROM t GROUP BY k HAVING NULL", ""},
	{"SELECT COUNT(*) FROM t WHERE f = NULL", "0"},
	{"SELECT COUNT(*) FROM t WHERE f <> NULL", "0"},
	{"SELECT COUNT(*) FROM t WHERE k IN (2.5)", "0"},
	{"SELECT COUNT(*) FROM t WHERE k NOT IN (2.5)", "3"},
	{"SELECT COUNT(*) FROM t WHERE k BETWEEN 1.5 AND 3.5", "1"},
	// Predicates over the nullable columns (algebra.Known).
	{"SELECT COUNT(*) FROM t WHERE v = 0", "0"},
	{"SELECT COUNT(*) FROM t WHERE v < 1", "0"},
	{"SELECT COUNT(*) FROM t WHERE v + 1 > 0", "1"},
	{"SELECT COUNT(*) FROM t WHERE NOT (v > 0)", "0"},
	{"SELECT COUNT(*) FROM t WHERE f = f", "2"},
	{"SELECT COUNT(*) FROM t WHERE c = ''", "1"},
	{"SELECT COUNT(*) FROM t WHERE c <> 'a'", "1"},
	{"SELECT COUNT(*) FROM t WHERE NOT (f < 1.5)", "1"},
	{"SELECT COUNT(*) FROM t WHERE NOT (v IN (5, 6))", "0"},
	{"SELECT COUNT(*) FROM t WHERE (v > 0) IS NULL", "2"},
	{"SELECT COUNT(*) FROM t WHERE (c LIKE 'a%') IS NULL", "1"},
}

// TestProbeTable: every engine answers probeRows as SQL does, at vector
// sizes 1, 3 and 1024, with the NULLs in the stable image and written by
// a live PDT.
func TestProbeTable(t *testing.T) {
	for _, deltas := range []bool{false, true} {
		cat := probeFixture(t, deltas)
		for _, c := range probeRows {
			st, err := sql.Parse(c.q)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
			if err != nil {
				t.Fatal(err)
			}
			for _, vs := range boolEngines {
				if got, err := boolKeys(cat, plan, vs); err != nil || got != c.want {
					t.Errorf("deltas=%v: %s: engine %d answers %s (%v), want %s", deltas, c.q, vs, got, err, c.want)
				}
			}
		}
	}
}

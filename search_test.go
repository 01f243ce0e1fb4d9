package vectorwise

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/pdt"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/testutil"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// searchGroupRows is the row-group size of buildSearchDB's table: not a
// multiple of any vector size the tests run.
const searchGroupRows = 100

// buildSearchDB registers `keys` (k BIGINT, d DATE, v DOUBLE) over n rows
// in row groups of searchGroupRows, and returns the k of every row. k
// rises in runs of equal keys with holes between them, from MinInt64 in
// the first row to MaxInt64 in the last; one run straddles every group
// boundary, so equal keys cross vector and group boundaries at every
// vector size. Group 3's keys are shuffled: its chunk of k is not
// Sorted, though its min/max lie among its neighbors'. d rises every
// eight rows.
func buildSearchDB(t testing.TB, rng *rand.Rand, n int) (*DB, []int64) {
	t.Helper()
	keys := make([]int64, n)
	k := int64(-40)
	for i := 1; i < n-1; i++ {
		if rng.Intn(3) != 0 && (i+3)%searchGroupRows > 6 {
			k += 1 + rng.Int63n(3)
		}
		keys[i] = k
	}
	keys[0], keys[n-1] = math.MinInt64, math.MaxInt64
	shuffled := keys[3*searchGroupRows : 4*searchGroupRows]
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b := storage.NewBuilder("keys", vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "d", Kind: vtypes.KindDate},
		vtypes.Column{Name: "v", Kind: vtypes.KindF64},
	), searchGroupRows)
	for i, k := range keys {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(k), vtypes.DateValue(searchDate(i)), vtypes.F64Value(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Meta.Groups[3].Cols[0].Sorted || !tbl.Meta.Groups[2].Cols[0].Sorted {
		t.Fatal("group 3's k must be the one unsorted chunk")
	}
	db := OpenMemory()
	db.SetParallelism(1)
	db.RegisterTable(tbl)
	return db, keys
}

// searchDate is the d of row i.
func searchDate(i int) int64 { return 9000 + int64(i/8) }

// runSearch plans a query over the catalog, binds args to its
// placeholders and runs it on the vectorized engine at the given
// parallelism and vector size, search on or off; it returns the rows and
// the scan counters.
func runSearch(t *testing.T, cat *catalog.Catalog, text string, args []vtypes.Value, par, vec int, search bool) ([]vtypes.Row, storage.ScanStatsSnapshot) {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	plan, err := (&sql.Planner{Cat: cat}).PlanQuery(stmt.AST)
	if err == nil {
		plan, err = algebra.BindParams(plan, args)
	}
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	if par > 1 {
		plan = rewriter.Parallelize(plan, cat, par)
	}
	var st storage.ScanStats
	op, err := xcompile.Compile(plan, cat, xcompile.Options{VecSize: vec, ScanStats: &st, NoPrune: !search})
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	rows, err := core.Collect(op)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return rows, st.Snapshot()
}

// searchQuery is a filter on the searched column and its arguments.
type searchQuery struct {
	where string
	args  []vtypes.Value
}

// randomSearchQuery draws a filter on k or d: a point, an open or closed
// end on either side, a BETWEEN or a conjunction of two ends, with
// literal or parameter bounds that fall on stored keys, in the holes
// between them, before the first row and after the last.
func randomSearchQuery(rng *rand.Rand, keys []int64) searchQuery {
	bound := func() int64 {
		switch rng.Intn(10) {
		case 0:
			return []int64{math.MinInt64, math.MaxInt64, -100, keys[len(keys)-2] + 50}[rng.Intn(4)]
		case 1:
			return keys[rng.Intn(len(keys)-2)+1] + 1
		}
		return keys[rng.Intn(len(keys)-2)+1]
	}
	col, lit := "k", func(x int64) string { return fmt.Sprint(x) }
	val := vtypes.I64Value
	if rng.Intn(4) == 0 {
		col, val = "d", vtypes.DateValue
		lit = func(x int64) string { return "DATE '" + vtypes.FormatDate(x) + "'" }
		bound = func() int64 { return searchDate(rng.Intn(len(keys)+40) - 20) }
	}
	a, b := bound(), bound()
	if a > b && rng.Intn(4) != 0 {
		a, b = b, a
	}
	ops := []string{"=", "<", "<=", ">", ">="}
	var where string
	var vals []int64
	switch rng.Intn(4) {
	case 0:
		where, vals = fmt.Sprintf("%s %s $1", col, ops[rng.Intn(len(ops))]), []int64{a}
	case 1:
		where, vals = col+" BETWEEN $1 AND $2", []int64{a, b}
	case 2:
		where, vals = fmt.Sprintf("%s %s $1 AND %s %s $2", col, ops[3+rng.Intn(2)], col, ops[1+rng.Intn(2)]), []int64{a, b}
	default:
		where, vals = fmt.Sprintf("%s = $1", col), []int64{a}
	}
	var q searchQuery
	if rng.Intn(2) == 0 {
		for i := len(vals); i > 0; i-- {
			where = strings.ReplaceAll(where, fmt.Sprintf("$%d", i), lit(vals[i-1]))
		}
	} else {
		for _, x := range vals {
			q.args = append(q.args, val(x))
		}
	}
	q.where = where
	return q
}

// searchLayer writes deltas into p, a PDT over an image of the keys
// table (toImage maps a stable position into p's stable coordinates):
// for each picked key, an insert of it at the start and at the end of
// another row group (so inside the range a search of it skips), a
// modification of the k of a row in another group to it, and a delete of
// one of its rows; then random inserts, deletes and modifications of k,
// d and v.
func searchLayer(t *testing.T, rng *rand.Rand, p *pdt.PDT, keys []int64, toImage func(int64) int64) {
	t.Helper()
	n := int64(len(keys))
	row := func(k int64) vtypes.Row {
		return vtypes.Row{vtypes.I64Value(k), vtypes.DateValue(searchDate(rng.Intn(len(keys)))), vtypes.F64Value(-float64(rng.Intn(1000)))}
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// at is the image row at or after stable position sid, or the last.
	at := func(sid int64) int64 { return min(p.StartRID(toImage(sid)), p.VisibleRows()-1) }
	for range 4 {
		k := keys[1+rng.Intn(len(keys)-2)]
		g := rng.Int63n(n / searchGroupRows)
		check(p.Insert(p.StartRID(toImage(g*searchGroupRows+1)), row(k)))
		check(p.Insert(p.StartRID(toImage(g*searchGroupRows+searchGroupRows-1)), row(k)))
		check(p.Modify(at(rng.Int63n(n)), 0, vtypes.I64Value(k)))
		if i, ok := slices.BinarySearch(keys[:3*searchGroupRows], k); ok {
			check(p.Delete(at(int64(i))))
		}
	}
	for range 30 {
		rows := p.VisibleRows()
		switch rng.Intn(5) {
		case 0:
			check(p.Insert(rng.Int63n(rows+1), row(keys[1+rng.Intn(len(keys)-2)]+rng.Int63n(3)-1)))
		case 1:
			check(p.Delete(rng.Int63n(rows)))
		case 2:
			check(p.Modify(rng.Int63n(rows), 0, vtypes.I64Value(keys[1+rng.Intn(len(keys)-2)])))
		case 3:
			check(p.Modify(rng.Int63n(rows), 1, vtypes.DateValue(searchDate(rng.Intn(len(keys))))))
		default:
			check(p.Modify(rng.Int63n(rows), 2, vtypes.F64Value(-1)))
		}
	}
}

// TestSearchDifferential: a search of the sorted chunks changes no
// answer. Random filters on the clustered key and date, with literal and
// bound-parameter ends, run with search on at parallelism 1 and 2 and
// vector sizes 1, 3 and 1024 against the same statement with data
// skipping off, over the stable table, one delta layer and two stacked
// layers. The deltas insert rows of a searched key inside the ranges a
// search skips, delete rows inside them, and modify the key both into
// the range from another group and elsewhere, and a second filter
// column inside a searched group.
func TestSearchDifferential(t *testing.T) {
	var skipped int64
	for trial := int64(0); trial < 3; trial++ {
		rng := rand.New(rand.NewSource(trial + 50))
		db, keys := buildSearchDB(t, rng, 1000)
		cat := db.Catalog()
		tbl, _, err := cat.Resolve("keys")
		if err != nil {
			t.Fatal(err)
		}
		bottom := pdt.New(tbl.Schema(), tbl.Rows())
		searchLayer(t, rng, bottom, keys, func(sid int64) int64 { return sid })
		// Group 5 is searched on k; modify its other filter columns.
		rid := min(bottom.StartRID(550), bottom.VisibleRows()-1)
		if err := errors.Join(bottom.Modify(rid, 1, vtypes.DateValue(searchDate(900))), bottom.Modify(rid, 2, vtypes.F64Value(-9))); err != nil {
			t.Fatal(err)
		}
		top := pdt.New(tbl.Schema(), bottom.VisibleRows())
		searchLayer(t, rng, top, keys, bottom.StartRID)
		for _, layers := range [][]*pdt.PDT{nil, {bottom}, {bottom, top}} {
			if err := cat.SetLayers("keys", layers); err != nil {
				t.Fatal(err)
			}
			queries := []searchQuery{
				{where: "k = $1", args: []vtypes.Value{vtypes.I64Value(math.MinInt64)}},
				{where: "k = 9223372036854775807"},
				{where: "k >= -9223372036854775808 AND k <= 9223372036854775807"},
				{where: "k < -9223372036854775808"},
				{where: "k > $1", args: []vtypes.Value{vtypes.I64Value(math.MaxInt64)}},
				{where: "k > $1", args: []vtypes.Value{vtypes.I64Value(math.MaxInt64 - 1)}},
				{where: "k BETWEEN -1000 AND -41"},
				{where: fmt.Sprintf("k BETWEEN %d AND %d", keys[998]+1, keys[998]+9)},
				{where: fmt.Sprintf("k = %d", keys[2*searchGroupRows])},
				{where: fmt.Sprintf("k = %d", keys[4*searchGroupRows+50]+1)},
				{where: fmt.Sprintf("k BETWEEN %d AND %d AND v > -8", keys[540], keys[560])},
				{where: fmt.Sprintf("k >= %d AND k < %d AND d <= $1", keys[545], keys[555]), args: []vtypes.Value{vtypes.DateValue(searchDate(560))}},
			}
			for range 25 {
				queries = append(queries, randomSearchQuery(rng, keys))
			}
			for _, q := range queries {
				text := "SELECT k, d, v FROM keys WHERE " + q.where + " ORDER BY k, d, v"
				label := fmt.Sprintf("trial %d, %d layers: %s %v", trial, len(layers), text, q.args)
				want, _ := runSearch(t, cat, text, q.args, 1, 0, false)
				for _, par := range []int{1, 2} {
					for _, vec := range []int{1, 3, 1024} {
						got, st := runSearch(t, cat, text, q.args, par, vec, true)
						if err := testutil.SameRows(fmt.Sprintf("%s (parallel %d, vector %d)", label, par, vec), want, got); err != nil {
							t.Fatal(err)
						}
						skipped += st.RowsSkipped
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no search skipped a row: the differential checked nothing")
	}
}

// Point and range writes qualify their rows through the searched scan:
// a DB with data skipping on and one with it off, fed the same UPDATEs
// and DELETEs by key, at parallelism 1 and 2, affect the same rows and
// hold the same table after every statement.
func TestSearchedWrites(t *testing.T) {
	for _, par := range []int{1, 2} {
		rng := rand.New(rand.NewSource(int64(par)))
		on, keys := buildSearchDB(t, rand.New(rand.NewSource(7)), 600)
		off, _ := buildSearchDB(t, rand.New(rand.NewSource(7)), 600)
		off.SetDataSkipping(false)
		for _, db := range []*DB{on, off} {
			db.SetParallelism(par)
		}
		for step := range 40 {
			k := keys[1+rng.Intn(len(keys)-2)]
			var q string
			var args []any
			switch rng.Intn(4) {
			case 0:
				q, args = `UPDATE keys SET v = ? WHERE k = ?`, []any{float64(step), k}
			case 1:
				q, args = `UPDATE keys SET k = ? WHERE k = ?`, []any{keys[1+rng.Intn(len(keys)-2)], k}
			case 2:
				q, args = `DELETE FROM keys WHERE k = ?`, []any{k}
			default:
				q, args = `DELETE FROM keys WHERE k BETWEEN ? AND ?`, []any{k, k + rng.Int63n(4)}
			}
			n, err := on.ExecArgs(q, args...)
			if err != nil {
				t.Fatalf("%s %v: %v", q, args, err)
			}
			if m, err := off.ExecArgs(q, args...); err != nil || m != n {
				t.Fatalf("%s %v: %d rows with search, %d without (%v)", q, args, n, m, err)
			}
			const all = `SELECT k, d, v FROM keys ORDER BY k, d, v`
			a, err := on.Query(all)
			if err != nil {
				t.Fatal(err)
			}
			b, err := off.Query(all)
			if err != nil {
				t.Fatal(err)
			}
			if err := testutil.SameRows(fmt.Sprintf("parallel %d, after %s %v", par, q, args), b.Rows, a.Rows); err != nil {
				t.Fatal(err)
			}
		}
		if on.ScanStats().RowsSkipped == 0 {
			t.Fatalf("parallel %d: no write searched", par)
		}
	}
}

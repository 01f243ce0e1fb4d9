// The small-range integer key differential. The vectorized engine groups
// a BIGINT or DATE key by its offset in a window that some batch's live
// keys span, re-based when a batch falls outside it; the tuple and
// materialized engines key groups by value. Every statement below runs on
// both reference engines and on the vectorized engine at vector sizes 1,
// 3 and 1024, serial and split across two Xchg workers, over a table that
// always carries live PDT deltas, and all must agree.
package enginetest

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/pdt"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

const evFixtureRows = 3000

// Columns of the fixture table ev.
const (
	evK = iota
	evD
	evGrp
	evV
	evS
	evNg
)

// evCatalog builds ev(k BIGINT, d DATE, grp BIGINT, v DOUBLE, s VARCHAR,
// ng BIGINT NULL) in row groups of 512, loaded in k order: grp cycles
// through 64 groups from −20 (its stable min/max is −20..43), d takes a
// new day every 50 rows, s four values, and ng seven values and NULL. The
// PDT inserts rows inside and outside grp's stable range (MaxInt64 among
// them), modifies grp out of it (to 5000 and to MinInt64) and into it,
// modifies ng to and from NULL, and deletes rows.
func evCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "d", Kind: vtypes.KindDate},
		vtypes.Column{Name: "grp", Kind: vtypes.KindI64}, vtypes.Column{Name: "v", Kind: vtypes.KindF64},
		vtypes.Column{Name: "s", Kind: vtypes.KindStr}, nullableCol("ng", vtypes.KindI64))
	day := vtypes.MustParseDate("1995-06-17")
	row := func(i int, grp int64) vtypes.Row {
		ng := vtypes.I64Value(int64(i % 7))
		if i%5 == 0 {
			ng = vtypes.NullValue(vtypes.KindI64)
		}
		return vtypes.Row{vtypes.I64Value(int64(i)), vtypes.DateValue(day + int64(i/50)), vtypes.I64Value(grp),
			vtypes.F64Value(float64(i%100) / 4), vtypes.StrValue([]string{"MAIL", "SHIP", "AIR", "RAIL"}[i%4]), ng}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	b := storage.NewBuilder("ev", schema, 512)
	for i := range evFixtureRows {
		must(b.AppendRow(row(i, int64(i%64-20))))
	}
	tbl, err := b.Finish()
	must(err)
	cat := catalog.New()
	cat.Put(tbl)
	p := pdt.New(schema, tbl.Rows())
	must(p.Modify(700, evGrp, vtypes.I64Value(5000)))
	must(p.Modify(701, evGrp, vtypes.I64Value(7)))
	must(p.Modify(1500, evGrp, vtypes.I64Value(math.MinInt64)))
	must(p.Modify(1501, evNg, vtypes.NullValue(vtypes.KindI64)))
	must(p.Modify(1505, evNg, vtypes.I64Value(3)))
	must(p.Delete(1510))
	must(p.Delete(2600))
	must(p.Insert(900, row(evFixtureRows, 25)))
	must(p.Insert(901, row(evFixtureRows+1, 900)))
	must(p.Insert(2000, row(evFixtureRows+2, -9000)))
	must(p.Insert(2001, row(evFixtureRows+3, math.MaxInt64)))
	must(p.Insert(2999, row(evFixtureRows+4, 43)))
	must(cat.SetLayers("ev", []*pdt.PDT{p}))
	return cat
}

var intKeyStatements = []string{
	"SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM ev GROUP BY grp",
	"SELECT grp, COUNT(*) AS n, SUM(v) AS total, SUM(k) AS ksum FROM ev GROUP BY grp",
	"SELECT grp, COUNT(*) FROM ev WHERE k BETWEEN 700 AND 2100 GROUP BY grp",
	"SELECT grp, COUNT(*), MAX(k) FROM ev WHERE v > 10 GROUP BY grp",
	"SELECT d, COUNT(*), MIN(k) FROM ev GROUP BY d",
	"SELECT grp, s, COUNT(*), MAX(v) FROM ev GROUP BY grp, s",
	"SELECT s, d, grp, COUNT(*) FROM ev GROUP BY s, d, grp",
	"SELECT ng, COUNT(*), SUM(v) FROM ev GROUP BY ng",
}

// TestSmallIntKeysDifferential: see the file comment. The first statement
// is the benchmark's scan_delta, and must group through the code cache.
func TestSmallIntKeysDifferential(t *testing.T) {
	cat := evCatalog(t)
	for _, text := range intKeyStatements {
		run := func(label string, opts tpch.RunOptions) string {
			rows, _, err := tpch.RunQuery(cat, tpch.SQLQuery{Name: "intkey", SQL: text}, opts)
			if err != nil {
				t.Fatalf("%s: %s: %v", text, label, err)
			}
			return strings.Join(render(rows), "\n")
		}
		want := run("tuple", tpch.RunOptions{Engine: tpch.EngineTuple})
		if got := run("materialized", tpch.RunOptions{Engine: tpch.EngineMaterialized}); got != want {
			t.Fatalf("%s: materialized\n%s\ntuple\n%s", text, got, want)
		}
		for _, parallel := range []int{1, 2} {
			for _, vecSize := range []int{1, 3, 1024} {
				label := fmt.Sprintf("vectorized parallel=%d vec=%d", parallel, vecSize)
				if got := run(label, tpch.RunOptions{Parallel: parallel, VecSize: vecSize}); got != want {
					t.Fatalf("%s: %s\n%s\ntuple\n%s", text, label, got, want)
				}
			}
		}
	}

	stmt, err := sql.Parse(intKeyStatements[0])
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (&sql.Planner{Cat: cat}).PlanQuery(stmt.AST)
	if err != nil {
		t.Fatal(err)
	}
	var sink core.HashStatsSink
	if _, err := collect(plan, cat, xcompile.Options{HashStats: &sink}); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(sink.Snapshot(), func(h core.HashTableStat) bool { return h.Op == "agg" && h.Keys == "codes" }) {
		t.Fatalf("scan_delta's aggregate resolved keys by %+v, want codes", sink.Snapshot())
	}
}

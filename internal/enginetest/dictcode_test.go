// The dictionary-code differential. The vectorized engine reads
// dictionary-coded VARCHAR chunks as codes: it groups and filters on the
// one-byte codes, and reads a row's string through the dictionary where it
// copies, joins, sorts or takes a MIN/MAX. The tuple and materialized
// engines scan strings only (storage.StringFetcher). Every statement below
// runs on both reference engines and on the vectorized engine with codes
// and through StringFetcher, at vector sizes 1, 3 and 1024, serial and
// split across two Xchg workers, with and without live PDT deltas on the
// coded columns, and all must agree.
package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/catalog"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

const dictRows = 600

// Columns of the fixture table d.
const (
	dFlag = iota
	dStatus
	dCity
	dColor
	dNullable
	dX
)

// dictCatalog builds d(flag, status, city, color VARCHAR; nk VARCHAR NULL;
// x BIGINT) in five row groups of 600 rows. flag holds the same three
// values in groups 0, 1 and 4, in a different first-occurrence order each;
// in group 2 every flag is distinct (a plain chunk); in group 3 it takes
// 300 values twice each (a dictionary too large for one-byte codes). city
// has 40 values and color 30, 1 200 combinations together. nk cycles NULL,
// the empty string, "p" and "q". With deltas, a PDT modifies keys in the
// middle of a batch (city to a value no dictionary holds), deletes and
// inserts. The join partner e(name VARCHAR, w BIGINT) has 240 rows in
// four groups, each coding A, N, R, Z, c07 and f123 in its own order.
func dictCatalog(t *testing.T, deltas bool) *catalog.Catalog {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "flag", Kind: vtypes.KindStr}, vtypes.Column{Name: "status", Kind: vtypes.KindStr},
		vtypes.Column{Name: "city", Kind: vtypes.KindStr}, vtypes.Column{Name: "color", Kind: vtypes.KindStr},
		nullableCol("nk", vtypes.KindStr), vtypes.Column{Name: "x", Kind: vtypes.KindI64})
	row := func(flag string, status, i int) vtypes.Row {
		nk := vtypes.StrValue([]string{"", "", "p", "q"}[i%4])
		if i%4 == 0 {
			nk = vtypes.NullValue(vtypes.KindStr)
		}
		return vtypes.Row{vtypes.StrValue(flag), vtypes.StrValue([]string{"F", "O"}[status%2]),
			vtypes.StrValue(fmt.Sprintf("c%02d", i%40)), vtypes.StrValue(fmt.Sprintf("k%02d", (i/40+i)%30)),
			nk, vtypes.I64Value(int64(i))}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	b := storage.NewBuilder("d", schema, dictRows)
	orders := [][]string{{"A", "N", "R"}, {"R", "A", "N"}, nil, nil, {"N", "R", "A"}}
	for g, order := range orders {
		for i := range dictRows {
			var flag string
			switch {
			case order != nil:
				flag = order[i%3]
			case g == 2:
				flag = fmt.Sprintf("f%03d", i)
			default:
				flag = fmt.Sprintf("f%03d", i%300)
			}
			must(b.AppendRow(row(flag, i/3+g, g*dictRows+i)))
		}
	}
	tbl, err := b.Finish()
	must(err)
	for g, want := range []int{3, 3, 0, 0, 3} { // dictionary entries carried as codes
		v, err := tbl.DecodeChunk(g, dFlag)
		must(err)
		if len(v.Dict) != want || (v.Codes != nil) != (want > 0) {
			t.Fatalf("group %d: flag carries %d codes over a dictionary of %d", g, len(v.Codes), len(v.Dict))
		}
	}
	cat := catalog.New()
	cat.Put(tbl)
	eb := storage.NewBuilder("e", vtypes.NewSchema(vtypes.Column{Name: "name", Kind: vtypes.KindStr},
		vtypes.Column{Name: "w", Kind: vtypes.KindI64}), 60)
	names := []string{"A", "N", "R", "Z", "c07", "f123"}
	for i := range 240 {
		must(eb.AppendRow(vtypes.Row{vtypes.StrValue(names[(i+i/60)%6]), vtypes.I64Value(int64(i))}))
	}
	etbl, err := eb.Finish()
	must(err)
	if v, err := etbl.DecodeChunk(1, 0); err != nil || v.Codes == nil || v.Dict[0] != "N" {
		t.Fatalf("e's second group not coded from N: %v (err %v)", v.Dict, err)
	}
	cat.Put(etbl)
	if !deltas {
		return cat
	}
	p := pdt.New(schema, tbl.Rows())
	mid := int64(dictRows + 500) // rows in the middle of group 1
	must(p.Modify(mid, dFlag, vtypes.StrValue("Z")))
	must(p.Modify(mid+1, dFlag, vtypes.StrValue("A")))
	must(p.Modify(mid+2, dStatus, vtypes.StrValue("O")))
	must(p.Modify(mid+3, dNullable, vtypes.StrValue("p")))
	must(p.Modify(mid+4, dNullable, vtypes.NullValue(vtypes.KindStr)))
	must(p.Modify(mid+5, dCity, vtypes.StrValue("c99")))
	must(p.Delete(mid + 10))
	must(p.Insert(mid+20, row("N", 0, 7)))
	must(p.Modify(3*dictRows+5, dFlag, vtypes.StrValue("R")))
	must(cat.SetLayers("d", []*pdt.PDT{p}))
	return cat
}

var dictStatements = []string{
	"SELECT flag, status, COUNT(*), SUM(x) FROM d GROUP BY flag, status",
	"SELECT status, flag, city, COUNT(*), MAX(x) FROM d WHERE color IN ('k01', 'k02', 'k03', 'k05', 'k08') GROUP BY status, flag, city",
	"SELECT city, color, COUNT(*), SUM(x) FROM d GROUP BY city, color",
	"SELECT nk, COUNT(*), SUM(x) FROM d GROUP BY nk",
	"SELECT status, nk, COUNT(*) FROM d GROUP BY status, nk",
	"SELECT x FROM d WHERE flag IN ('A', 'R')",
	"SELECT x FROM d WHERE flag = 'N' AND status = 'O'",
	"SELECT x FROM d WHERE 'R' = flag",
	// Not '' on nk: its NULL rows' safe value is '', and the engines
	// disagree on those until NULL semantics are a rewriter rule.
	"SELECT COUNT(*) FROM d WHERE nk IN ('p', 'q')",
	"SELECT COUNT(*) FROM d WHERE nk = 'q'",
	"SELECT x FROM d WHERE flag = NULL",
	"SELECT status, COUNT(*), SUM(x) FROM d WHERE flag IN ('f123', 'A', 'Z') GROUP BY status",
	"SELECT flag, MIN(city), MAX(x) FROM d WHERE city = 'c07' GROUP BY flag",
	// Every predicate over a dictionary: each entry is judged once.
	"SELECT x FROM d WHERE flag LIKE 'A%' OR city LIKE 'c_7'",
	"SELECT COUNT(*), SUM(x) FROM d WHERE city NOT LIKE '%1%' AND color NOT LIKE 'k_5'",
	"SELECT x FROM d WHERE city < 'c03'",
	"SELECT COUNT(*) FROM d WHERE color BETWEEN 'k05' AND 'k12' AND flag <> 'N'",
	"SELECT COUNT(*) FROM d WHERE flag = 'Q' OR city >= 'c99'",
	"SELECT COUNT(*) FROM d WHERE flag > '' AND status <> ''",
	"SELECT COUNT(*), SUM(x) FROM d WHERE nk LIKE '_' OR nk BETWEEN 'a' AND 'p'",
	// Coded join keys: e.name builds and d.flag probes; d.flag builds the
	// semi join under IN.
	"SELECT e.name, COUNT(*), SUM(d.x), MIN(d.city) FROM d JOIN e ON d.flag = e.name WHERE d.x < 700 OR d.x > 2900 GROUP BY e.name",
	"SELECT d.city, d.flag, e.w FROM d JOIN e ON d.city = e.name WHERE d.x < 1300",
	"SELECT w, name FROM e WHERE name IN (SELECT flag FROM d WHERE x < 700)",
	// Coded sort keys and MIN/MAX arguments.
	"SELECT flag, city, x FROM d ORDER BY city DESC, flag, x LIMIT 25",
	"SELECT status, MIN(flag), MAX(city), MIN(nk), MAX(color) FROM d GROUP BY status",
	"SELECT MIN(flag), MAX(flag), MAX(nk) FROM d",
	// Coded output columns of a pruned point and range lookup.
	"SELECT x, flag, city, nk FROM d WHERE x = 1234",
	"SELECT flag, status, city FROM d WHERE x BETWEEN 2410 AND 2420",
}

// TestDictCodesDifferential: see the file comment.
func TestDictCodesDifferential(t *testing.T) {
	for _, deltas := range []bool{false, true} {
		cat := dictCatalog(t, deltas)
		for _, text := range dictStatements {
			name := fmt.Sprintf("deltas=%v/%s", deltas, text)
			run := func(label string, opts tpch.RunOptions) string {
				rows, _, err := tpch.RunQuery(cat, tpch.SQLQuery{Name: "dict", SQL: text}, opts)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, label, err)
				}
				return strings.Join(render(rows), "\n")
			}
			want := run("tuple", tpch.RunOptions{Engine: tpch.EngineTuple})
			if got := run("materialized", tpch.RunOptions{Engine: tpch.EngineMaterialized}); got != want {
				t.Fatalf("%s: materialized\n%s\ntuple\n%s", name, got, want)
			}
			for _, parallel := range []int{1, 2} {
				for _, vecSize := range []int{1, 3, 1024} {
					for _, fetch := range []storage.ChunkFetcher{nil, storage.StringFetcher{}} {
						label := fmt.Sprintf("vectorized parallel=%d vec=%d fetch=%T", parallel, vecSize, fetch)
						if got := run(label, tpch.RunOptions{Parallel: parallel, VecSize: vecSize, Fetch: fetch}); got != want {
							t.Fatalf("%s: %s\n%s\ntuple\n%s", name, label, got, want)
						}
					}
				}
			}
		}
	}
}

package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/catalog"
	"vectorwise/internal/compress"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// fsstStopAndGoCatalog is fsstCatalog (orders' and lineitem's comments in
// 4 and 15 FSST chunks, one symbol table each) plus pd(k BIGINT, c VARCHAR
// NULL): c is o_comment's value k mod 1 100, so each value is in two or
// three of pd's three FSST groups of 1 000 rows, coded under a different
// table in each, and NULL every thirteenth row; a PDT modifies c (to new
// values, the empty string and NULL), inserts and deletes rows. A scan of
// pd hands out FSST arenas for the batches the deltas leave alone and
// strings for the ones they touch, so a buffer that keeps pd.c holds rows
// of both kinds.
func fsstStopAndGoCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := fsstCatalog(t)
	ob, err := cat.Get("orders")
	if err != nil {
		t.Fatal(err)
	}
	comments, err := ob.Table.ReadAllColumn(tpch.OComment)
	if err != nil {
		t.Fatal(err)
	}
	schema := vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}, nullableCol("c", vtypes.KindStr))
	b := storage.NewBuilder("pd", schema, 1000)
	row := func(k int64, c string) vtypes.Row { return vtypes.Row{vtypes.I64Value(k), vtypes.StrValue(c)} }
	for k := range 3000 {
		r := row(int64(k), comments.Str[k%1100])
		if k%13 == 0 {
			r[1] = vtypes.NullValue(vtypes.KindStr)
		}
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for g := range tbl.Groups() {
		if codec := tbl.Meta.Groups[g].Cols[1].Codec; codec != compress.CodecFSST {
			t.Fatalf("pd group %d: c coded %v", g, codec)
		}
	}
	cat.Put(tbl)
	p := pdt.New(schema, tbl.Rows())
	for _, err := range []error{
		p.Modify(10, 1, vtypes.StrValue("a new comment")),
		p.Modify(1030, 1, vtypes.StrValue("")),
		p.Modify(1031, 1, vtypes.NullValue(vtypes.KindStr)),
		p.Modify(2500, 1, vtypes.StrValue(comments.Str[7])), // a value another row holds
		p.Delete(1500),
		p.Insert(2001, row(5000, "an inserted comment")),
		p.Insert(2001, row(5001, comments.Str[2001])),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.SetLayers("pd", []*pdt.PDT{p}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// fsstStopAndGoStatements carry FSST strings through every stop-and-go
// operator: a hash join's build payload, a probe side that fans out
// (gathered as codes), a join → join → GROUP BY chain on FSST keys (Q10's
// shape, and Q10 itself), a Sort's payload with and without a TopN cut,
// LEFT JOIN NULL padding, and pd's mix of codes and strings.
var fsstStopAndGoStatements = []string{
	// Build payload: lineitem's few rows build, carrying l_comment; each
	// order row of the probe fans out over its lines.
	"SELECT o_orderkey, o_comment, l_linenumber, l_comment FROM orders JOIN lineitem ON o_orderkey = l_orderkey WHERE l_quantity < 3",
	"SELECT l_orderkey, l_comment, o_comment FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_totalprice < 5000",
	// join → join → GROUP BY on FSST keys.
	`SELECT c_name, o_comment, COUNT(*) AS n, SUM(l_quantity) AS q FROM customer
		JOIN orders ON c_custkey = o_custkey JOIN lineitem ON l_orderkey = o_orderkey
		WHERE l_returnflag = 'R' GROUP BY c_name, o_comment`,
	tpchSQL("Q10"),
	// Sort payload: a full sort, and TopN cuts of 700 rows out of 15 000.
	"SELECT o_orderkey, o_comment FROM orders WHERE o_orderkey < 3000 ORDER BY o_totalprice, o_orderkey",
	"SELECT o_orderkey, o_comment FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 700",
	"SELECT l_orderkey, l_linenumber, l_comment FROM lineitem ORDER BY l_extendedprice, l_orderkey, l_linenumber LIMIT 300",
	// LEFT JOIN NULL padding: a customer with no order, a line whose
	// order pd lacks.
	"SELECT c_custkey, c_name, o_orderkey, o_comment FROM customer LEFT JOIN orders ON c_custkey = o_custkey WHERE c_custkey < 90",
	"SELECT l_orderkey, l_linenumber, l_comment, k, c FROM lineitem LEFT JOIN pd ON l_orderkey = k WHERE l_quantity < 4",
	// pd: codes and strings in one buffer, as payload and as keys, and
	// keys equal across chunks.
	"SELECT o_orderkey, o_comment, c FROM orders JOIN pd ON o_orderkey = k",
	"SELECT k, c FROM pd ORDER BY k DESC LIMIT 40",
	"SELECT k, c FROM pd WHERE k > 900 ORDER BY c DESC, k LIMIT 50",
	"SELECT c, COUNT(*) AS n, MIN(k) AS lo FROM pd GROUP BY c",
	"SELECT a.k, a.c, b.c FROM pd a JOIN pd b ON a.c = b.c WHERE a.k < b.k",
	"SELECT k, c, o_comment FROM pd LEFT JOIN orders ON k = o_orderkey WHERE k > 1990 AND k < 2050",
}

// tpchSQL returns a TPC-H query's text.
func tpchSQL(name string) string {
	q, ok := tpch.FindSQL(name)
	if !ok {
		panic(name)
	}
	return q.SQL
}

// TestFSSTStopAndGoDifferential runs fsstStopAndGoStatements on the tuple
// and materialized engines, which read every chunk as strings, and on the
// vectorized one at vector sizes 3 and 1024, serial and split across two
// Xchg workers (whose copies of an FSST arena are FSST arenas), on codes
// and through DecodedFetcher: all must agree.
func TestFSSTStopAndGoDifferential(t *testing.T) {
	cat := fsstStopAndGoCatalog(t)
	for _, text := range fsstStopAndGoStatements {
		run := func(label string, opts tpch.RunOptions) string {
			rows, _, err := tpch.RunQuery(cat, tpch.SQLQuery{Name: "fsst", SQL: text}, opts)
			if err != nil {
				t.Fatalf("%s: %s: %v", text, label, err)
			}
			return strings.Join(render(rows), "\n")
		}
		want := run("tuple", tpch.RunOptions{Engine: tpch.EngineTuple})
		if want == "" {
			t.Fatalf("%s: no rows", text)
		}
		if got := run("materialized", tpch.RunOptions{Engine: tpch.EngineMaterialized}); got != want {
			t.Fatalf("%s: materialized\n%s\ntuple\n%s", text, got, want)
		}
		for _, parallel := range []int{1, 2} {
			for _, vecSize := range []int{3, 1024} {
				for _, fetch := range []storage.ChunkFetcher{nil, storage.DecodedFetcher{}} {
					label := fmt.Sprintf("vectorized parallel=%d vec=%d fetch=%T", parallel, vecSize, fetch)
					if got := run(label, tpch.RunOptions{Parallel: parallel, VecSize: vecSize, Fetch: fetch}); got != want {
						t.Fatalf("%s: %s\n%s\ntuple\n%s", text, label, got, want)
					}
				}
			}
		}
	}
}

// The FSST differential. TPC-H's comment columns code as FSST chunks, one
// symbol table a chunk, which the vectorized engine reads as arenas over
// the codes: =, <> and IN compare codes with each constant encoded per
// chunk, a LIKE of a fast shape runs an automaton lifted per chunk, and
// every other reader decodes the rows it reads. The tuple and materialized
// engines read the same chunks as strings (storage.DecodedFetcher). Every
// statement below runs on all three, the vectorized one with codes and
// through DecodedFetcher, at vector sizes 3 and 1024, serial and split
// across two Xchg workers, and all must agree.
package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/catalog"
	"vectorwise/internal/compress"
	"vectorwise/internal/storage"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// fsstCatalog is TPC-H at SF 0.01 in row groups of 4 096 rows, so
// lineitem's and orders' comments span 15 and 4 chunks of their own
// tables, and nc(k BIGINT, c VARCHAR NULL, v BIGINT NULL): c comments,
// NULL every seventh row and the empty string every eleventh, v = k % 4 - 1,
// NULL every fifth row, in groups of 1 000. Every chunk of the three
// comment columns is FSST.
func fsstCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, err := tpch.Generate(0.01, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := cat.Get("orders")
	if err != nil {
		t.Fatal(err)
	}
	comments, err := ob.Table.ReadAllColumn(tpch.OComment)
	if err != nil {
		t.Fatal(err)
	}
	b := storage.NewBuilder("nc", vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		nullableCol("c", vtypes.KindStr), nullableCol("v", vtypes.KindI64)), 1000)
	for k := range 3000 {
		c, v := vtypes.StrValue(comments.Str[k]), vtypes.I64Value(int64(k%4-1))
		switch {
		case k%7 == 0:
			c = vtypes.NullValue(vtypes.KindStr)
		case k%11 == 0:
			c = vtypes.StrValue("")
		}
		if k%5 == 0 {
			v = vtypes.NullValue(vtypes.KindI64)
		}
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(k)), c, v}); err != nil {
			t.Fatal(err)
		}
	}
	nc, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat.Put(nc)
	for _, c := range []struct {
		table string
		col   int
	}{{"lineitem", tpch.LComment}, {"orders", tpch.OComment}, {"nc", 1}} {
		e, err := cat.Get(c.table)
		if err != nil {
			t.Fatal(err)
		}
		for g := range e.Table.Groups() {
			if codec := e.Table.Meta.Groups[g].Cols[c.col].Codec; codec != compress.CodecFSST {
				t.Fatalf("%s group %d: col %d coded %v", c.table, g, c.col, codec)
			}
		}
	}
	return cat
}

// fsstStatements are the statements run on every engine. present and
// again are two of o_comment's values, nc one of nc's, and absent none of
// them.
func fsstStatements(present, again, nc string) []string {
	absent := "quickly no such comment"
	return []string{
		// =, <> and IN against present and absent constants, coded
		// per chunk.
		fmt.Sprintf("SELECT o_orderkey FROM orders WHERE o_comment = '%s'", present),
		fmt.Sprintf("SELECT COUNT(*) AS n FROM orders WHERE o_comment = '%s'", absent),
		fmt.Sprintf("SELECT COUNT(*) AS n, SUM(o_orderkey) AS s FROM orders WHERE o_comment <> '%s'", present),
		fmt.Sprintf("SELECT COUNT(*) AS n FROM orders WHERE o_comment <> '%s'", absent),
		fmt.Sprintf("SELECT o_orderkey FROM orders WHERE o_comment IN ('%s', '%s', '%s')", present, absent, again),
		fmt.Sprintf("SELECT COUNT(*) AS n FROM orders WHERE o_comment NOT IN ('%s', '%s')", present, absent),
		fmt.Sprintf("SELECT COUNT(*) AS n FROM lineitem WHERE l_comment IN ('%s', '')", absent),
		// Every LIKE shape: exact, prefix, suffix, contains, Q13's
		// general pattern and '_' patterns, LIKE and NOT LIKE.
		fmt.Sprintf("SELECT o_orderkey FROM orders WHERE o_comment LIKE '%s'", present),
		"SELECT COUNT(*) AS n FROM orders WHERE o_comment LIKE 'furiously%'",
		"SELECT COUNT(*) AS n FROM orders WHERE o_comment LIKE '%deposits'",
		"SELECT COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_comment LIKE '%special%'",
		"SELECT COUNT(*) AS n FROM orders WHERE o_comment LIKE '%special%requests%'",
		"SELECT COUNT(*) AS n FROM orders WHERE o_comment NOT LIKE '%special%requests%'",
		"SELECT COUNT(*) AS n FROM lineitem WHERE l_comment NOT LIKE '%ly %'",
		"SELECT COUNT(*) AS n FROM orders WHERE o_comment LIKE 'f_rious%'",
		"SELECT COUNT(*) AS n FROM lineitem WHERE l_comment LIKE '%iro_ic %'",
		"SELECT COUNT(*) AS n FROM orders WHERE o_comment LIKE '%s s%'",
		// Ordered comparisons and ranges decode the rows they read.
		"SELECT COUNT(*) AS n FROM orders WHERE o_comment < 'carefully' OR o_comment >= 'silent'",
		"SELECT COUNT(*) AS n FROM lineitem WHERE l_comment BETWEEN 'even' AND 'final'",
		// A comment through a hash join's payload, ORDER BY with LIMIT,
		// GROUP BY, MIN and MAX.
		"SELECT o_comment, l_linenumber, l_comment FROM orders JOIN lineitem ON o_orderkey = l_orderkey WHERE l_quantity < 2",
		"SELECT o_comment, o_orderkey FROM orders ORDER BY o_comment, o_orderkey LIMIT 20",
		"SELECT o_comment, COUNT(*) AS n FROM orders GROUP BY o_comment ORDER BY n DESC, o_comment LIMIT 30",
		"SELECT l_shipmode, MIN(l_comment) AS lo, MAX(l_comment) AS hi FROM lineitem GROUP BY l_shipmode",
		// The NULLable column: NULLs beside empty strings, both kinds of
		// predicate, a group and an order. A NULL row's codes are those
		// of its safe value "", which c = '', c <> 'x' and NOT LIKE would
		// accept: the predicate's NULL guard (algebra.Known) drops it.
		"SELECT COUNT(*) AS n FROM nc WHERE c IS NULL",
		"SELECT COUNT(*) AS n FROM nc WHERE c = ''",
		"SELECT COUNT(*) AS n, SUM(k) AS s FROM nc WHERE c <> 'x'",
		fmt.Sprintf("SELECT COUNT(*) AS n FROM nc WHERE c <> '%s'", nc),
		"SELECT COUNT(*) AS n FROM nc WHERE c NOT LIKE '%special%'",
		"SELECT COUNT(*) AS n FROM nc WHERE c NOT LIKE 'final%' AND c IN ('', 'x')",
		// A left join's NULL-extended rows meet a predicate on the right
		// side, and HAVING reads a nullable group key.
		"SELECT COUNT(*) AS n, SUM(o_orderkey) AS s FROM orders LEFT JOIN nc r ON o_orderkey = r.k WHERE r.v < 1",
		"SELECT COUNT(*) AS n FROM orders LEFT JOIN nc r ON o_orderkey = r.k WHERE r.c = '' OR r.v <= -1",
		"SELECT c, COUNT(*) AS n FROM nc WHERE k < 400 GROUP BY c HAVING c < 'b' ORDER BY c",
		"SELECT v, COUNT(*) AS n FROM nc GROUP BY v HAVING v <> 2 ORDER BY v",
		fmt.Sprintf("SELECT k FROM nc WHERE c = '%s' OR c LIKE '%%special%%'", nc),
		"SELECT COUNT(*) AS n FROM nc WHERE c LIKE 'final%' OR c LIKE '%ly'",
		"SELECT c, COUNT(*) AS n FROM nc GROUP BY c ORDER BY n DESC, c LIMIT 10",
		"SELECT k, c FROM nc ORDER BY c DESC, k LIMIT 15",
		"SELECT k, c FROM nc WHERE k < 40 ORDER BY c, k",
	}
}

// TestFSSTCommentsDifferential runs fsstStatements on every engine.
func TestFSSTCommentsDifferential(t *testing.T) {
	cat := fsstCatalog(t)
	ob, _ := cat.Get("orders")
	comments, err := ob.Table.ReadAllColumn(tpch.OComment)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range fsstStatements(comments.Str[4000], comments.Str[12345], comments.Str[2001]) {
		run := func(label string, opts tpch.RunOptions) string {
			rows, _, err := tpch.RunQuery(cat, tpch.SQLQuery{Name: "fsst", SQL: text}, opts)
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

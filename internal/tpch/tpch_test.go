package tpch

import (
	"math"
	"strings"
	"testing"

	"vectorwise/internal/compress"
	"vectorwise/internal/storage"
	"vectorwise/internal/testutil"
	"vectorwise/internal/vtypes"
)

func TestGeneratorShapes(t *testing.T) {
	cat, err := Generate(0.002, 1024)
	if err != nil {
		t.Fatal(err)
	}
	sz, err := SizesFor(0.002)
	if err != nil {
		t.Fatal(err)
	}
	for _, chk := range []struct {
		table string
		want  int64
	}{
		{"region", 5}, {"nation", 25},
		{"supplier", sz.Supplier}, {"customer", sz.Customer},
		{"part", sz.Part}, {"orders", sz.Orders}, {"partsupp", sz.Part * 4},
	} {
		tbl, _, err := cat.Resolve(chk.table)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Rows() != chk.want {
			t.Errorf("%s: %d rows, want %d", chk.table, tbl.Rows(), chk.want)
		}
	}
	li, _, err := cat.Resolve("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	// ~4 lines per order on average.
	if li.Rows() < sz.Orders*2 || li.Rows() > sz.Orders*7 {
		t.Errorf("lineitem rows %d out of expected band", li.Rows())
	}
	// FK integrity spot check: partkeys within range.
	pk, err := storage.DecodedFetcher{}.FetchColumn(li, 0, LPartKey)
	if err != nil {
		t.Fatal(err)
	}
	if pk.I64[0] < 1 || pk.I64[0] > sz.Part {
		t.Errorf("lineitem partkey %d out of range", pk.I64[0])
	}
	// Determinism: regenerating yields identical rows.
	cat2, err := Generate(0.002, 1024)
	if err != nil {
		t.Fatal(err)
	}
	li2, _, _ := cat2.Resolve("lineitem")
	for _, g := range []int{0, li.Groups() - 1} {
		for c := range li.Meta.Cols {
			a, _ := storage.DecodedFetcher{}.FetchColumn(li, g, c)
			b, _ := storage.DecodedFetcher{}.FetchColumn(li2, g, c)
			for i := 0; i < li.GroupRows(g); i++ {
				if !a.Get(i).Equal(b.Get(i)) {
					t.Fatalf("generator not deterministic at group %d row %d col %d", g, i, c)
				}
			}
		}
	}
}

// TestGenerateRejectsBadScale: a scale factor that is not a number > 0,
// or whose row counts or row seeds overflow an int64, is an error, not
// a degenerate database.
func TestGenerateRejectsBadScale(t *testing.T) {
	for _, sf := range []float64{0, -1, math.NaN(), math.Inf(1), 1e300, 1e14} {
		if cat, err := Generate(sf, 0); err == nil {
			t.Errorf("Generate(%g) = %v, nil; want an error", sf, cat.Names())
		}
	}
}

func TestSuiteValidatesAcrossEngines(t *testing.T) {
	cat, err := Generate(0.002, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(cat); err != nil {
		t.Fatal(err)
	}
	// Two engines disagreeing on column count is a divergence Validate
	// must report, not an index panic inside its comparison.
	wide := []vtypes.Row{{vtypes.I64Value(1), vtypes.I64Value(2)}}
	narrow := []vtypes.Row{{vtypes.I64Value(1)}}
	for _, same := range []func(string, []vtypes.Row, []vtypes.Row) error{testutil.SameRows, testutil.SameRowsUnordered} {
		if same("arity", wide, narrow) == nil || same("arity", narrow, wide) == nil {
			t.Error("rows of different arity compared equal")
		}
	}
}

func TestQueriesReturnPlausibleResults(t *testing.T) {
	cat, err := Generate(0.002, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range SQLSuite() {
		rows, d, err := RunQuery(cat, q, RunOptions{Engine: EngineVectorized})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if d <= 0 {
			t.Fatalf("%s: non-positive duration", q.Name)
		}
		switch q.Name {
		case "Q1":
			if len(rows) < 3 || len(rows) > 6 {
				t.Errorf("Q1 groups = %d, want 4-ish", len(rows))
			}
			for _, r := range rows {
				if r[9].I64 <= 0 {
					t.Errorf("Q1 count_order must be positive")
				}
			}
		case "Q3":
			if len(rows) > 10 {
				t.Errorf("Q3 must respect LIMIT 10, got %d", len(rows))
			}
		case "Q6":
			if len(rows) != 1 {
				t.Fatalf("Q6 must return one row")
			}
			if rows[0][0].F64 <= 0 {
				t.Errorf("Q6 revenue must be positive, got %v", rows[0][0])
			}
		case "Q10":
			if len(rows) > 20 {
				t.Errorf("Q10 must respect LIMIT 20")
			}
		case "Q14":
			if len(rows) != 1 || rows[0][0].F64 < 0 || rows[0][0].F64 > 100 {
				t.Errorf("Q14 promo pct implausible: %v", rows)
			}
		}
	}
}

func TestQ6MatchesScalarReference(t *testing.T) {
	// Recompute Q6 with a plain scalar loop over the raw table.
	cat, err := Generate(0.002, 2048)
	if err != nil {
		t.Fatal(err)
	}
	li, _, _ := cat.Resolve("lineitem")
	lo := vtypes.MustParseDate("1994-01-01")
	hi := vtypes.MustParseDate("1994-12-31")
	var want float64
	ship, _ := li.ReadAllColumn(LShipDate)
	disc, _ := li.ReadAllColumn(LDiscount)
	qty, _ := li.ReadAllColumn(LQuantity)
	extp, _ := li.ReadAllColumn(LExtendedPrice)
	for i := 0; i < int(li.Rows()); i++ {
		if ship.I64[i] >= lo && ship.I64[i] <= hi &&
			disc.F64[i] >= 0.05 && disc.F64[i] <= 0.07 && qty.F64[i] < 24 {
			want += extp.F64[i] * disc.F64[i]
		}
	}
	q6, _ := FindSQL("Q6")
	rows, _, err := RunQuery(cat, q6, RunOptions{Engine: EngineVectorized})
	if err != nil {
		t.Fatal(err)
	}
	got := rows[0][0].F64
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("Q6 = %v, scalar reference %v", got, want)
	}
}

// TestCodecChoice: at SF 0.01 every chunk of the small-domain lineitem
// DOUBLEs (l_quantity, l_discount, l_tax) is dictionary-coded and every
// other DOUBLE chunk stays plain, and every VARCHAR column's chunks take
// the codec pinned here: PDICT where a dictionary of at most 256 entries
// holds the chunk in fewer bytes than plain, FSST where more distinct
// values code in fewer, plain otherwise. supplier.s_address (100 rows,
// 77 distinct) is PDICT: how many of a chunk's rows are distinct does not
// decide. Every BIGINT and DATE column's chunks take the codec pinned
// here too: PFOR-DELTA on the keys laid down in order, RLE on the
// one-value o_shippriority, PFOR on the rest. region.r_regionkey stays
// PFOR although RLE codes its five rows in fewer bytes: five runs of one
// row are not long enough to try RLE on.
func TestCodecChoice(t *testing.T) {
	cat, err := Generate(0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[compress.Codec]string{
		compress.CodecDictF64: "lineitem.l_quantity lineitem.l_discount lineitem.l_tax",
		compress.CodecDict: "customer.c_mktsegment lineitem.l_returnflag lineitem.l_linestatus " +
			"lineitem.l_shipinstruct lineitem.l_shipmode orders.o_orderstatus orders.o_orderpriority " +
			"orders.o_clerk part.p_mfgr part.p_brand part.p_type part.p_container supplier.s_address",
		compress.CodecFSST: "customer.c_name customer.c_address customer.c_phone customer.c_comment " +
			"lineitem.l_comment orders.o_comment part.p_name part.p_comment partsupp.ps_comment",
		compress.CodecPlainStr: "nation.n_name nation.n_comment region.r_name region.r_comment " +
			"supplier.s_name supplier.s_phone supplier.s_comment",
		compress.CodecPFORDelta: "customer.c_custkey lineitem.l_orderkey nation.n_nationkey orders.o_orderkey " +
			"part.p_partkey partsupp.ps_partkey partsupp.ps_suppkey supplier.s_suppkey",
		compress.CodecPFOR: "customer.c_nationkey lineitem.l_partkey lineitem.l_suppkey lineitem.l_linenumber " +
			"lineitem.l_shipdate lineitem.l_commitdate lineitem.l_receiptdate nation.n_regionkey " +
			"orders.o_custkey orders.o_orderdate part.p_size partsupp.ps_availqty region.r_regionkey " +
			"supplier.s_nationkey",
		compress.CodecRLE: "orders.o_shippriority",
	}
	want := map[string]compress.Codec{}
	for codec, cols := range pinned {
		for _, key := range strings.Fields(cols) {
			want[key] = codec
		}
	}
	seen := 0
	for _, name := range cat.Names() {
		tbl, _, err := cat.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		for c, col := range tbl.Meta.Cols {
			key := name + "." + col.Name
			codec, ok := want[key]
			switch {
			case ok:
				seen++
			case col.Kind == vtypes.KindF64:
				codec = compress.CodecPlainF64
			case col.Kind == vtypes.KindStr || col.Kind.StorageClass() == vtypes.ClassI64:
				t.Errorf("%s: no codec pinned", key)
				continue
			default:
				continue
			}
			for g, grp := range tbl.Meta.Groups {
				if got := grp.Cols[c].Codec; got != codec {
					t.Errorf("%s group %d: %v, want %v", key, g, got, codec)
				}
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("found %d of the %d pinned columns", seen, len(want))
	}
}

// The dictionary-code differential. The vectorized engine reads
// dictionary-coded VARCHAR and DOUBLE chunks as codes: it groups and
// filters on the one-byte codes, maps a DOUBLE dictionary under arithmetic
// with constants, and reads a row's value through the dictionary where it
// copies, joins, sorts, computes or takes an aggregate. The tuple and
// materialized engines scan values only (storage.DecodedFetcher). Every
// statement below runs on both reference engines and on the vectorized
// engine with codes and through DecodedFetcher, at vector sizes 1, 3 and
// 1024, serial and split across two Xchg workers, with and without live
// PDT deltas on the coded columns, and all must agree. The high-cardinality
// column note is an arena in every chunk, FSST-coded, so the vectorized
// engine reads its codes for =, <>, IN and LIKE and decodes its rows for
// everything else.
package enginetest

import (
	"fmt"
	"math"
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
	dQ
	dR
	dZ
	dNote
)

// The DOUBLE fixture values: every finite one a multiple of 1/4, so sums
// are exact in any order; two NaNs of different payloads and signs.
var (
	negZero = math.Copysign(0, -1)
	qVals   = []float64{math.Inf(-1), negZero, 0, 0.25, 0.5, 1.5, 2.5, math.Inf(1)}
	nanA    = math.Float64frombits(0x7ff8000000000001)
	nanB    = math.Float64frombits(0xfff8000000000002)
)

// doubles returns the DOUBLE columns q, r and z of global row i. q takes
// qVals in a different first-occurrence order per group, and 600 values
// (a plain chunk) in group 2. r codes dictionaries of 255, 256, 257 (a
// plain chunk), 256 and 3 entries. z holds NaNs beside 2 to 4 other
// values, and in group 2 300 values and a NaN (a plain chunk).
func doubles(i int) (q, r, z float64) {
	g, j := i/dictRows, i%dictRows
	switch g {
	case 0:
		q, r, z = qVals[j%8], float64(j%255)/4, []float64{1, nanA, 2.5}[j%3]
	case 1:
		q, r, z = qVals[7-j%8], float64(j%256)/4, []float64{nanB, -4, 1, 3}[j%4]
	case 2:
		q, r, z = float64(j)/4-10, float64(j%257)/4, float64(j)/4
		if j%2 == 0 {
			z = nanA
		}
	case 3:
		q, r, z = qVals[j*3%8], float64(j*7%256)/4, []float64{nanA, 2.5, nanB}[j%3]
	default:
		q, r, z = qVals[(j+5)%8], float64(j%3)/4, []float64{3, nanA}[j%2]
	}
	return q, r, z
}

// note is row i's high-cardinality VARCHAR: empty every tenth row, a join
// partner's name every tenth, multibyte every fifth (three-byte and
// two-byte leads), and otherwise one of two or three rows sharing a value.
// Each group holds more than 300 values, so no chunk is dictionary-coded.
func note(i int) string {
	switch i % 10 {
	case 0:
		return ""
	case 5:
		return []string{"A", "N", "R", "c07", "f123", "Q"}[i/10%6]
	case 3:
		return fmt.Sprintf("日本%d", i/3)
	case 7:
		return fmt.Sprintf("é%d", i/3)
	}
	return fmt.Sprintf("n%d", i*2/3)
}

// dictCatalog builds d(flag, status, city, color VARCHAR; nk VARCHAR NULL;
// x BIGINT; q, r, z DOUBLE, see doubles; note VARCHAR, see note) in five
// row groups of 600 rows.
// flag holds the same three values in groups 0, 1 and 4, in a different
// first-occurrence order each; in group 2 every flag is distinct, and in
// group 3 it takes 300 values twice each: more than one-byte codes hold,
// so both chunks are FSST-coded. city has 40 values and color 30, 1 200
// combinations together. nk cycles NULL, the empty string, "p" and "q".
// With deltas, a PDT modifies keys in the middle of a batch (city to a
// value no dictionary holds), deletes and inserts, modifies q, r and z,
// to values no dictionary holds and to −0 and a NaN, and modifies note to
// a new value, the empty string and a multibyte one. The join partner
// e(name VARCHAR, w BIGINT, v DOUBLE) has 240 rows in four groups, each
// coding A, N, R, Z, c07 and f123, and 0, −0, 0.5, 1.5 and 7, in its own
// order.
func dictCatalog(t *testing.T, deltas bool) *catalog.Catalog {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "flag", Kind: vtypes.KindStr}, vtypes.Column{Name: "status", Kind: vtypes.KindStr},
		vtypes.Column{Name: "city", Kind: vtypes.KindStr}, vtypes.Column{Name: "color", Kind: vtypes.KindStr},
		nullableCol("nk", vtypes.KindStr), vtypes.Column{Name: "x", Kind: vtypes.KindI64},
		vtypes.Column{Name: "q", Kind: vtypes.KindF64}, vtypes.Column{Name: "r", Kind: vtypes.KindF64},
		vtypes.Column{Name: "z", Kind: vtypes.KindF64}, vtypes.Column{Name: "note", Kind: vtypes.KindStr})
	row := func(flag string, status, i int) vtypes.Row {
		nk := vtypes.StrValue([]string{"", "", "p", "q"}[i%4])
		if i%4 == 0 {
			nk = vtypes.NullValue(vtypes.KindStr)
		}
		q, r, z := doubles(i)
		return vtypes.Row{vtypes.StrValue(flag), vtypes.StrValue([]string{"F", "O"}[status%2]),
			vtypes.StrValue(fmt.Sprintf("c%02d", i%40)), vtypes.StrValue(fmt.Sprintf("k%02d", (i/40+i)%30)),
			nk, vtypes.I64Value(int64(i)), vtypes.F64Value(q), vtypes.F64Value(r), vtypes.F64Value(z), vtypes.StrValue(note(i))}
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
		if len(v.Dict()) != want || (v.Codes != nil) != (want > 0) {
			t.Fatalf("group %d: flag carries %d codes over a dictionary of %d", g, len(v.Codes), len(v.Dict()))
		}
	}
	for c, want := range map[int][]int{dQ: {8, 8, 0, 8, 8}, dR: {255, 256, 0, 256, 3}, dZ: {3, 4, 0, 3, 2}} {
		for g, want := range want {
			v, err := tbl.DecodeChunk(g, c)
			must(err)
			if len(v.DictF64()) != want || (v.Codes != nil) != (want > 0) || (v.F64 != nil) != (want == 0) {
				t.Fatalf("group %d col %d: %d codes over a dictionary of %d, %d values", g, c, len(v.Codes), len(v.DictF64()), len(v.F64))
			}
		}
	}
	for g := range tbl.Groups() {
		if v, err := tbl.DecodeChunk(g, dNote); err != nil || v.Off == nil {
			t.Fatalf("group %d: note is not an arena (%v, err %v)", g, tbl.Meta.Groups[g].Cols[dNote].Codec, err)
		}
	}
	cat := catalog.New()
	cat.Put(tbl)
	eb := storage.NewBuilder("e", vtypes.NewSchema(vtypes.Column{Name: "name", Kind: vtypes.KindStr},
		vtypes.Column{Name: "w", Kind: vtypes.KindI64}, vtypes.Column{Name: "v", Kind: vtypes.KindF64}), 60)
	names := []string{"A", "N", "R", "Z", "c07", "f123"}
	vs := []float64{0, negZero, 0.5, 1.5, 7}
	for i := range 240 {
		must(eb.AppendRow(vtypes.Row{vtypes.StrValue(names[(i+i/60)%6]), vtypes.I64Value(int64(i)), vtypes.F64Value(vs[(i+i/60)%5])}))
	}
	etbl, err := eb.Finish()
	must(err)
	if v, err := etbl.DecodeChunk(1, 0); err != nil || v.Codes == nil || v.Dict()[0] != "N" {
		t.Fatalf("e's second group not coded from N: %v (err %v)", v.Dict(), err)
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
	must(p.Modify(mid+6, dQ, vtypes.F64Value(7.75)))
	must(p.Modify(mid+7, dR, vtypes.F64Value(-0.25)))
	must(p.Modify(mid+8, dZ, vtypes.F64Value(nanB)))
	must(p.Modify(mid+9, dZ, vtypes.F64Value(2.5)))
	must(p.Modify(3*dictRows+9, dQ, vtypes.F64Value(negZero)))
	must(p.Modify(4*dictRows+2, dR, vtypes.F64Value(0.25)))
	must(p.Modify(mid+11, dNote, vtypes.StrValue("n-new")))
	must(p.Modify(mid+12, dNote, vtypes.StrValue("")))
	must(p.Modify(2*dictRows+599, dNote, vtypes.StrValue("日本-new")))
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
	// Coded DOUBLEs: every predicate on one column runs over the
	// dictionary; ±0 are equal and keep their signs; IN takes members of
	// either numeric class.
	"SELECT x, q, r FROM d WHERE q = 0",
	"SELECT COUNT(*), SUM(x) FROM d WHERE q <> 0.5 AND r < 10",
	"SELECT x, q FROM d WHERE q > 1.5 OR q <= -1",
	"SELECT COUNT(*), SUM(r) FROM d WHERE r BETWEEN 12.5 AND 40 AND q >= 0",
	"SELECT x, r FROM d WHERE r IN (0, 2.5, 63.75, 64)",
	"SELECT x, q FROM d WHERE q IN (1, 0.5, 7.75) OR r IN (-0.0, 1)",
	"SELECT x FROM d WHERE q < r AND r < 1",
	// Maps over a dictionary, a map's result filtered on its codes, and
	// arithmetic, CASE and aggregates reading coded values.
	"SELECT x, 1 - q, q * 2, 0.5 + r, r / 2 FROM d WHERE x < 40 OR x > 2980",
	"SELECT COUNT(*), SUM(x) FROM d WHERE 1 - q < 0.75 AND (r - 1) * 2 >= 3",
	"SELECT SUM(x * (1 - r)), SUM((1 - r) * (1 + r)), AVG(r), MIN(r), MAX(r), COUNT(r) FROM d",
	"SELECT flag, MIN(q), MAX(q), SUM(r), AVG(1 + q) FROM d WHERE q > -1 AND q < 3 AND q <> 0 GROUP BY flag",
	"SELECT x, CASE WHEN x < 1500 THEN q ELSE r END FROM d WHERE x < 20 OR x > 2990",
	// Coded DOUBLE group, join and sort keys.
	"SELECT r, COUNT(*), SUM(x) FROM d WHERE r < 2 GROUP BY r",
	"SELECT e.name, COUNT(*), SUM(d.x), MIN(d.r) FROM d JOIN e ON d.q = e.v WHERE d.x < 700 GROUP BY e.name",
	"SELECT x, q, r FROM d ORDER BY r DESC, q, x LIMIT 30",
	"SELECT x, q, r FROM d WHERE x = 1807",
	// The plain column note, an arena: LIKE in all five shapes, the
	// comparisons, BETWEEN and IN on its bytes; grouping, sorting, a join
	// key, MIN/MAX and output reading views of them.
	"SELECT x FROM d WHERE note LIKE 'n12'",
	"SELECT x, note FROM d WHERE note LIKE 'n1%' AND x < 1000",
	"SELECT COUNT(*), SUM(x) FROM d WHERE note LIKE '%7'",
	"SELECT x, note FROM d WHERE note LIKE '%本1%'",
	"SELECT COUNT(*), SUM(x) FROM d WHERE note LIKE '_本%' OR note LIKE 'é_'",
	"SELECT COUNT(*), SUM(x) FROM d WHERE note NOT LIKE 'é%' AND note NOT LIKE '%1'",
	"SELECT x FROM d WHERE note = '' AND x > 2900",
	"SELECT COUNT(*), SUM(x) FROM d WHERE note <> 'n100' AND note < 'n2'",
	"SELECT COUNT(*), SUM(x) FROM d WHERE note > 'é' OR note <= 'A'",
	"SELECT x, note FROM d WHERE note >= '日本9' AND x < 2000",
	"SELECT COUNT(*), SUM(x) FROM d WHERE note BETWEEN 'n1' AND 'n3'",
	"SELECT x, note FROM d WHERE note IN ('', 'n10', '日本5', 'é7', 'Q') AND x < 200",
	"SELECT note, COUNT(*), SUM(x) FROM d WHERE x < 900 GROUP BY note",
	"SELECT status, note, COUNT(*) FROM d WHERE x BETWEEN 560 AND 640 GROUP BY status, note",
	"SELECT note, x FROM d ORDER BY note DESC, x LIMIT 40",
	"SELECT note, flag, x FROM d WHERE x BETWEEN 1150 AND 1250 ORDER BY note, x",
	"SELECT e.name, COUNT(*), SUM(d.x), MIN(d.note) FROM d JOIN e ON d.note = e.name GROUP BY e.name",
	"SELECT status, MIN(note), MAX(note), COUNT(note) FROM d GROUP BY status",
	"SELECT MIN(note), MAX(note) FROM d WHERE x > 100",
	"SELECT x, note, flag FROM d WHERE x BETWEEN 590 AND 610",
	"SELECT note, city FROM d WHERE x = 1234",
}

// nanStatements read z, whose NaNs the reference engines order and match
// by a different rule (ROADMAP item 12), so they compare the vectorized
// engine on codes with itself through DecodedFetcher only.
var nanStatements = []string{
	"SELECT x, z FROM d WHERE z > 1",
	"SELECT x FROM d WHERE z <> 2.5",
	"SELECT x FROM d WHERE z IN (1, 2.5) OR z <= -4",
	"SELECT COUNT(*) FROM d WHERE z = z",
	"SELECT x, z, 1 - z FROM d WHERE x < 30 OR x > 2990",
	"SELECT z, COUNT(*), SUM(x) FROM d GROUP BY z",
	"SELECT MIN(z), MAX(z), SUM(z), COUNT(*) FROM d WHERE z < 3",
	"SELECT x, z FROM d ORDER BY z, x LIMIT 20",
}

// TestDictCodesDifferential: see the file comment.
func TestDictCodesDifferential(t *testing.T) {
	for _, deltas := range []bool{false, true} {
		cat := dictCatalog(t, deltas)
		for _, text := range append(dictStatements, nanStatements...) {
			name := fmt.Sprintf("deltas=%v/%s", deltas, text)
			run := func(label string, opts tpch.RunOptions) string {
				rows, _, err := tpch.RunQuery(cat, tpch.SQLQuery{Name: "dict", SQL: text}, opts)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, label, err)
				}
				return strings.Join(render(rows), "\n")
			}
			want, oracle := "", "tuple"
			if strings.Contains(text, "z") {
				oracle = "vectorized through DecodedFetcher"
			} else {
				want = run("tuple", tpch.RunOptions{Engine: tpch.EngineTuple})
				if got := run("materialized", tpch.RunOptions{Engine: tpch.EngineMaterialized}); got != want {
					t.Fatalf("%s: materialized\n%s\ntuple\n%s", name, got, want)
				}
			}
			for _, parallel := range []int{1, 2} {
				for _, vecSize := range []int{1, 3, 1024} {
					if oracle != "tuple" {
						want = run(oracle, tpch.RunOptions{Parallel: parallel, VecSize: vecSize, Fetch: storage.DecodedFetcher{}})
					}
					for _, fetch := range []storage.ChunkFetcher{nil, storage.DecodedFetcher{}} {
						label := fmt.Sprintf("vectorized parallel=%d vec=%d fetch=%T", parallel, vecSize, fetch)
						if got := run(label, tpch.RunOptions{Parallel: parallel, VecSize: vecSize, Fetch: fetch}); got != want {
							t.Fatalf("%s: %s\n%s\n%s\n%s", name, label, got, oracle, want)
						}
					}
				}
			}
		}
	}
}

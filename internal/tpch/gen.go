package tpch

import (
	"fmt"
	"slices"
	"strings"

	"vectorwise/internal/catalog"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// Deterministic dbgen-style generator. Row counts follow the TPC-H
// cardinality formulas scaled by SF; value distributions mimic dbgen's
// (uniform keys, date windows, text pools) closely enough that query
// selectivities land near the spec's, which is what the benchmark shape
// depends on. A splitmix64 stream keyed by (table, row) makes every
// value reproducible independent of generation order.

type rng struct{ state uint64 }

func newRng(table uint64, row int64) *rng {
	return &rng{state: table*0x9e3779b97f4a7c15 + uint64(row)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// rang returns a uniform value in [lo, hi] inclusive.
func (r *rng) rang(lo, hi int64) int64 { return lo + r.intn(hi-lo+1) }

func (r *rng) pick(list []string) string { return list[r.intn(int64(len(list)))] }

// dbgen text pools (abbreviated but shaped like the spec's).
var (
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	// nationRegion maps nation key to region key per the spec.
	nationRegion = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	statuses     = []string{"O", "F", "P"}
	priorities   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes    = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs    = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers   = []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX", "MED PKG", "MED PACK", "LG CASE", "LG BOX", "LG PACK", "LG PKG", "JUMBO PKG", "WRAP CASE"}
	colors       = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow"}
	types1       = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	types2       = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	types3       = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	commentWords = []string{"requests", "deposits", "packages", "foxes", "accounts", "pending", "furiously", "carefully", "quickly", "special", "express", "regular", "final", "bold", "even", "silent", "ironic"}
)

// Date window of the spec: orders span 1992-01-01 .. 1998-08-02. A
// line received (shipped) by flagCutoff is returned or accepted
// (finished).
var (
	dateLo     = vtypes.MustParseDate("1992-01-01")
	dateHi     = vtypes.MustParseDate("1998-08-02")
	flagCutoff = vtypes.MustParseDate("1995-06-17")
)

// Sizes describes scaled table cardinalities.
type Sizes struct {
	Supplier, Customer, Part, Partsupp, Orders int64
}

// maxOrders bounds the orders cardinality so that every row seed fits
// in an int64: lineitem's o*8+l, and partsupp's p*4+s over fewer parts.
const maxOrders = 1 << 60

// SizesFor returns cardinalities for a scale factor, which must be a
// number > 0 small enough that the row seeds fit in an int64.
func SizesFor(sf float64) (Sizes, error) {
	if !(sf > 0 && 1500000*sf < maxOrders) {
		return Sizes{}, fmt.Errorf("tpch: scale factor %g: want a number > 0 giving fewer than 2^60 orders", sf)
	}
	return Sizes{
		Supplier: int64(10000 * sf),
		Customer: int64(150000 * sf),
		Part:     int64(200000 * sf),
		Partsupp: int64(800000 * sf),
		Orders:   int64(1500000 * sf),
	}, nil
}

// comment draws the given number of words from commentWords and joins
// them with single spaces in one allocation. No table asks for more
// than seven.
func (r *rng) comment(words int) string {
	var picked [7]string
	for i := range words {
		picked[i] = r.pick(commentWords)
	}
	return strings.Join(picked[:words], " ")
}

// tables lists the generators in load order.
var tables = []struct {
	name   string
	schema func() *vtypes.Schema
	gen    func(Sizes) []any
}{
	{"region", RegionSchema, genRegion},
	{"nation", NationSchema, genNation},
	{"supplier", SupplierSchema, genSupplier},
	{"customer", CustomerSchema, genCustomer},
	{"part", PartSchema, genPart},
	{"partsupp", PartsuppSchema, genPartsupp},
	{"orders", OrdersSchema, genOrders},
	{"lineitem", LineitemSchema, genLineitem},
}

// GenerateColumns generates the eight TPC-H tables at scale factor sf
// (see SizesFor) one at a time and hands each to fn as column slices in
// schema order: []int64 for BIGINT and DATE, []float64 for DOUBLE and
// []string for VARCHAR, the shape storage.Builder.AppendColumns and
// DB.LoadBatch take. No value is NULL. A table's columns are garbage
// once fn returns, so at most one table's are live.
func GenerateColumns(sf float64, fn func(name string, schema *vtypes.Schema, cols []any) error) error {
	sz, err := SizesFor(sf)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := fn(t.name, t.schema(), t.gen(sz)); err != nil {
			return err
		}
	}
	return nil
}

// Generate builds all eight TPC-H tables at scale factor sf (see
// SizesFor) into a catalog. groupRows <= 0 uses the storage default.
func Generate(sf float64, groupRows int) (*catalog.Catalog, error) {
	cat := catalog.New()
	err := GenerateColumns(sf, func(name string, schema *vtypes.Schema, cols []any) error {
		b := storage.NewBuilder(name, schema, groupRows)
		if _, err := b.AppendColumns(cols, nil); err != nil {
			return err
		}
		t, err := b.Finish()
		if err != nil {
			return err
		}
		cat.Put(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cat, nil
}

func genRegion(Sizes) []any {
	key, comment := make([]int64, len(regions)), make([]string, len(regions))
	for i := range regions {
		key[i] = int64(i)
		comment[i] = newRng(1, int64(i)).comment(4)
	}
	return []any{key, slices.Clone(regions), comment}
}

func genNation(Sizes) []any {
	key, comment := make([]int64, len(nations)), make([]string, len(nations))
	for i := range nations {
		key[i] = int64(i)
		comment[i] = newRng(2, int64(i)).comment(5)
	}
	return []any{key, slices.Clone(nations), slices.Clone(nationRegion), comment}
}

func genSupplier(sz Sizes) []any {
	comment := make([]string, sz.Supplier)
	cols := genParty(3, "Supplier", sz.Supplier, func(j int64, r *rng) {
		comment[j] = r.comment(6)
	})
	return append(cols, comment)
}

func genCustomer(sz Sizes) []any {
	segment, comment := make([]string, sz.Customer), make([]string, sz.Customer)
	cols := genParty(4, "Customer", sz.Customer, func(j int64, r *rng) {
		segment[j] = r.pick(segments)
		comment[j] = r.comment(7)
	})
	return append(cols, segment, comment)
}

// genParty generates the n rows of the columns supplier and customer
// share: key, name, address, nation key, phone and account balance.
// rest then draws row j's remaining columns from the same stream.
func genParty(table uint64, prefix string, n int64, rest func(j int64, r *rng)) []any {
	key, nation := make([]int64, n), make([]int64, n)
	name, addr, phone := make([]string, n), make([]string, n), make([]string, n)
	bal := make([]float64, n)
	for j := range n {
		r := newRng(table, j+1)
		key[j] = j + 1
		name[j] = fmt.Sprintf("%s#%09d", prefix, j+1)
		addr[j] = r.comment(2)
		nation[j] = r.intn(25)
		phone[j] = fmt.Sprintf("%02d-%03d-%03d-%04d", 10+r.intn(25), r.intn(1000), r.intn(1000), r.intn(10000))
		bal[j] = float64(r.rang(-99999, 999999)) / 100
		rest(j, r)
	}
	return []any{key, name, addr, nation, phone, bal}
}

func genPart(sz Sizes) []any {
	n := sz.Part
	key, size := make([]int64, n), make([]int64, n)
	name, mfgr, brand, typ := make([]string, n), make([]string, n), make([]string, n), make([]string, n)
	container, comment := make([]string, n), make([]string, n)
	price := make([]float64, n)
	for j := range n {
		i := j + 1
		r := newRng(5, i)
		key[j] = i
		name[j] = r.pick(colors) + " " + r.pick(colors) + " " + r.pick(colors) + " " + r.pick(colors) + " " + r.pick(colors)
		m := 1 + r.intn(5)
		mfgr[j] = fmt.Sprintf("Manufacturer#%d", m)
		brand[j] = fmt.Sprintf("Brand#%d", m*10+1+r.intn(5))
		typ[j] = r.pick(types1) + " " + r.pick(types2) + " " + r.pick(types3)
		size[j] = 1 + r.intn(50)
		container[j] = r.pick(containers)
		price[j] = 90000.0/100 + float64(i%200000)/2000 + 0.01*float64(i%1000)
		comment[j] = r.comment(3)
	}
	return []any{key, name, mfgr, brand, typ, size, container, price, comment}
}

// genPartsupp gives each part four suppliers; row j is part j/4+1's
// (j%4)th, seeded by j+4.
func genPartsupp(sz Sizes) []any {
	parts, suppliers := sz.Part, max(sz.Supplier, 1)
	n := parts * 4
	pkey, skey, avail := make([]int64, n), make([]int64, n), make([]int64, n)
	cost, comment := make([]float64, n), make([]string, n)
	for j := range n {
		p, s := j/4+1, j%4
		r := newRng(6, p*4+s)
		pkey[j] = p
		skey[j] = 1 + (p+s*(parts/4+1))%suppliers
		avail[j] = 1 + r.intn(9999)
		cost[j] = float64(r.rang(100, 100000)) / 100
		comment[j] = r.comment(5)
	}
	return []any{pkey, skey, avail, cost, comment}
}

func genOrders(sz Sizes) []any {
	n, customers, clerks := sz.Orders, max(sz.Customer, 1), max(sz.Orders/1500, 1)
	key, cust, date, shipPri := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	status, pri, clerk, comment := make([]string, n), make([]string, n), make([]string, n), make([]string, n)
	total := make([]float64, n)
	for j := range n {
		i := j + 1
		r := newRng(7, i)
		date[j] = dateLo + r.intn(dateHi-dateLo-151)
		key[j] = i
		cust[j] = 1 + r.intn(customers)
		status[j] = r.pick(statuses)
		total[j] = float64(r.rang(85000, 55528500)) / 100
		pri[j] = r.pick(priorities)
		clerk[j] = fmt.Sprintf("Clerk#%09d", 1+r.intn(clerks))
		comment[j] = r.comment(6)
	}
	return []any{key, cust, status, total, date, pri, clerk, shipPri, comment}
}

// orderDate recomputes an order's date (shared with lineitem generation).
func orderDate(orderKey int64) int64 {
	r := newRng(7, orderKey)
	return dateLo + r.intn(dateHi-dateLo-151)
}

// lineCount is the number of lines of an order, 1 to 7.
func lineCount(orderKey int64) int64 { return 1 + newRng(8, orderKey).intn(7) }

// genLineitem generates each order's lines in orderkey order. Line l of
// order o draws, from the stream seeded by o*8+l: quantity, price, ship,
// commit and receipt dates, the return flag's coin (received lines
// only), part key, supplier key, discount, tax, ship instruction, ship
// mode and comment.
func genLineitem(sz Sizes) []any {
	orders, parts, suppliers := sz.Orders, max(sz.Part, 1), max(sz.Supplier, 1)
	var n int64
	for o := int64(1); o <= orders; o++ {
		n += lineCount(o)
	}
	okey, pkey, skey, lnum := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	ship, commit, receipt := make([]int64, n), make([]int64, n), make([]int64, n)
	qty, price, disc, tax := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	rf, ls, instruct, mode, comment := make([]string, n), make([]string, n), make([]string, n), make([]string, n), make([]string, n)
	var j int64
	for o := int64(1); o <= orders; o++ {
		odate := orderDate(o)
		for l := range lineCount(o) {
			r := newRng(9, o*8+l)
			qty[j] = float64(1 + r.intn(50))
			price[j] = float64(r.rang(90000, 200000)) / 100 * qty[j] / 10
			ship[j] = odate + 1 + r.intn(121)
			commit[j] = odate + 30 + r.intn(61)
			receipt[j] = ship[j] + 1 + r.intn(30)
			switch {
			case receipt[j] > flagCutoff:
				rf[j] = "N"
			case r.intn(2) == 0:
				rf[j] = "R"
			default:
				rf[j] = "A"
			}
			ls[j] = "O"
			if ship[j] <= flagCutoff {
				ls[j] = "F"
			}
			okey[j] = o
			pkey[j] = 1 + r.intn(parts)
			skey[j] = 1 + r.intn(suppliers)
			lnum[j] = l + 1
			disc[j] = float64(r.intn(11)) / 100
			tax[j] = float64(r.intn(9)) / 100
			instruct[j] = r.pick(instructs)
			mode[j] = r.pick(shipModes)
			comment[j] = r.comment(4)
			j++
		}
	}
	return []any{okey, pkey, skey, lnum, qty, price, disc, tax, rf, ls, ship, commit, receipt, instruct, mode, comment}
}

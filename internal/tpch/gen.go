package tpch

import (
	"fmt"
	"math"

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

// Date window of the spec: orders span 1992-01-01 .. 1998-08-02.
var (
	dateLo = vtypes.MustParseDate("1992-01-01")
	dateHi = vtypes.MustParseDate("1998-08-02")
)

// Sizes describes scaled table cardinalities.
type Sizes struct {
	Supplier, Customer, Part, Partsupp, Orders int64
}

// SizesFor returns cardinalities for a scale factor.
func SizesFor(sf float64) Sizes {
	return Sizes{
		Supplier: int64(10000 * sf),
		Customer: int64(150000 * sf),
		Part:     int64(200000 * sf),
		Partsupp: int64(800000 * sf),
		Orders:   int64(1500000 * sf),
	}
}

func (r *rng) comment(words int) string {
	out := ""
	for i := 0; i < words; i++ {
		if i > 0 {
			out += " "
		}
		out += r.pick(commentWords)
	}
	return out
}

// Generate builds all eight TPC-H tables at the given scale factor into
// a catalog. The scale factor must be finite and positive. groupRows <= 0
// uses the storage default.
func Generate(sf float64, groupRows int) (*catalog.Catalog, error) {
	if !(sf > 0 && sf <= math.MaxFloat64) {
		return nil, fmt.Errorf("tpch: scale factor %g: want a finite number > 0", sf)
	}
	cat := catalog.New()
	sz := SizesFor(sf)

	put := func(t *storage.Table, err error) error {
		if err != nil {
			return err
		}
		cat.Put(t)
		return nil
	}
	if err := put(genRegion(groupRows)); err != nil {
		return nil, err
	}
	if err := put(genNation(groupRows)); err != nil {
		return nil, err
	}
	if err := put(genSupplier(sz.Supplier, groupRows)); err != nil {
		return nil, err
	}
	if err := put(genCustomer(sz.Customer, groupRows)); err != nil {
		return nil, err
	}
	if err := put(genPart(sz.Part, groupRows)); err != nil {
		return nil, err
	}
	if err := put(genPartsupp(sz.Part, sz.Supplier, groupRows)); err != nil {
		return nil, err
	}
	if err := put(genOrders(sz.Orders, sz.Customer, groupRows)); err != nil {
		return nil, err
	}
	if err := put(genLineitem(sz.Orders, sz.Part, sz.Supplier, groupRows)); err != nil {
		return nil, err
	}
	return cat, nil
}

func genRegion(groupRows int) (*storage.Table, error) {
	b := storage.NewBuilder("region", RegionSchema(), groupRows)
	for i, name := range regions {
		r := newRng(1, int64(i))
		if err := b.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)), vtypes.StrValue(name), vtypes.StrValue(r.comment(4)),
		}); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

func genNation(groupRows int) (*storage.Table, error) {
	b := storage.NewBuilder("nation", NationSchema(), groupRows)
	for i, name := range nations {
		r := newRng(2, int64(i))
		if err := b.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)), vtypes.StrValue(name),
			vtypes.I64Value(nationRegion[i]), vtypes.StrValue(r.comment(5)),
		}); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

func genSupplier(n int64, groupRows int) (*storage.Table, error) {
	b := storage.NewBuilder("supplier", SupplierSchema(), groupRows)
	for i := int64(1); i <= n; i++ {
		r := newRng(3, i)
		if err := b.AppendRow(vtypes.Row{
			vtypes.I64Value(i),
			vtypes.StrValue(fmt.Sprintf("Supplier#%09d", i)),
			vtypes.StrValue(r.comment(2)),
			vtypes.I64Value(r.intn(25)),
			vtypes.StrValue(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+r.intn(25), r.intn(1000), r.intn(1000), r.intn(10000))),
			vtypes.F64Value(float64(r.rang(-99999, 999999)) / 100),
			vtypes.StrValue(r.comment(6)),
		}); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

func genCustomer(n int64, groupRows int) (*storage.Table, error) {
	b := storage.NewBuilder("customer", CustomerSchema(), groupRows)
	for i := int64(1); i <= n; i++ {
		r := newRng(4, i)
		if err := b.AppendRow(vtypes.Row{
			vtypes.I64Value(i),
			vtypes.StrValue(fmt.Sprintf("Customer#%09d", i)),
			vtypes.StrValue(r.comment(2)),
			vtypes.I64Value(r.intn(25)),
			vtypes.StrValue(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+r.intn(25), r.intn(1000), r.intn(1000), r.intn(10000))),
			vtypes.F64Value(float64(r.rang(-99999, 999999)) / 100),
			vtypes.StrValue(r.pick(segments)),
			vtypes.StrValue(r.comment(7)),
		}); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

func genPart(n int64, groupRows int) (*storage.Table, error) {
	b := storage.NewBuilder("part", PartSchema(), groupRows)
	for i := int64(1); i <= n; i++ {
		r := newRng(5, i)
		name := r.pick(colors) + " " + r.pick(colors) + " " + r.pick(colors) + " " + r.pick(colors) + " " + r.pick(colors)
		mfgr := 1 + r.intn(5)
		brand := mfgr*10 + 1 + r.intn(5)
		if err := b.AppendRow(vtypes.Row{
			vtypes.I64Value(i),
			vtypes.StrValue(name),
			vtypes.StrValue(fmt.Sprintf("Manufacturer#%d", mfgr)),
			vtypes.StrValue(fmt.Sprintf("Brand#%d", brand)),
			vtypes.StrValue(r.pick(types1) + " " + r.pick(types2) + " " + r.pick(types3)),
			vtypes.I64Value(1 + r.intn(50)),
			vtypes.StrValue(r.pick(containers)),
			vtypes.F64Value(90000.0/100 + float64(i%200000)/2000 + 0.01*float64(i%1000)),
			vtypes.StrValue(r.comment(3)),
		}); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

func genPartsupp(parts, suppliers int64, groupRows int) (*storage.Table, error) {
	b := storage.NewBuilder("partsupp", PartsuppSchema(), groupRows)
	suppliers = maxI64(suppliers, 1)
	for p := int64(1); p <= parts; p++ {
		for s := int64(0); s < 4; s++ {
			r := newRng(6, p*4+s)
			if err := b.AppendRow(vtypes.Row{
				vtypes.I64Value(p),
				vtypes.I64Value(1 + (p+s*(parts/4+1))%suppliers),
				vtypes.I64Value(1 + r.intn(9999)),
				vtypes.F64Value(float64(r.rang(100, 100000)) / 100),
				vtypes.StrValue(r.comment(5)),
			}); err != nil {
				return nil, err
			}
		}
	}
	return b.Finish()
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func genOrders(n, customers int64, groupRows int) (*storage.Table, error) {
	b := storage.NewBuilder("orders", OrdersSchema(), groupRows)
	customers = maxI64(customers, 1)
	for i := int64(1); i <= n; i++ {
		r := newRng(7, i)
		odate := dateLo + r.intn(dateHi-dateLo-151)
		if err := b.AppendRow(vtypes.Row{
			vtypes.I64Value(i),
			vtypes.I64Value(1 + r.intn(customers)),
			vtypes.StrValue(r.pick([]string{"O", "F", "P"})),
			vtypes.F64Value(float64(r.rang(85000, 55528500)) / 100),
			vtypes.DateValue(odate),
			vtypes.StrValue(r.pick(priorities)),
			vtypes.StrValue(fmt.Sprintf("Clerk#%09d", 1+r.intn(maxI64(n/1500, 1)))),
			vtypes.I64Value(0),
			vtypes.StrValue(r.comment(6)),
		}); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// OrderDate recomputes an order's date (shared with lineitem generation).
func orderDate(orderKey int64) int64 {
	r := newRng(7, orderKey)
	return dateLo + r.intn(dateHi-dateLo-151)
}

func genLineitem(orders, parts, suppliers int64, groupRows int) (*storage.Table, error) {
	b := storage.NewBuilder("lineitem", LineitemSchema(), groupRows)
	parts = maxI64(parts, 1)
	suppliers = maxI64(suppliers, 1)
	for o := int64(1); o <= orders; o++ {
		r := newRng(8, o)
		lines := 1 + r.intn(7)
		odate := orderDate(o)
		for l := int64(0); l < lines; l++ {
			lr := newRng(9, o*8+l)
			qty := float64(1 + lr.intn(50))
			price := float64(lr.rang(90000, 200000)) / 100 * qty / 10
			ship := odate + 1 + lr.intn(121)
			commit := odate + 30 + lr.intn(61)
			receipt := ship + 1 + lr.intn(30)
			rf := "N"
			if receipt <= vtypes.MustParseDate("1995-06-17") {
				if lr.intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			}
			ls := "O"
			if ship <= vtypes.MustParseDate("1995-06-17") {
				ls = "F"
			}
			if err := b.AppendRow(vtypes.Row{
				vtypes.I64Value(o),
				vtypes.I64Value(1 + lr.intn(parts)),
				vtypes.I64Value(1 + lr.intn(suppliers)),
				vtypes.I64Value(l + 1),
				vtypes.F64Value(qty),
				vtypes.F64Value(price),
				vtypes.F64Value(float64(lr.intn(11)) / 100),
				vtypes.F64Value(float64(lr.intn(9)) / 100),
				vtypes.StrValue(rf),
				vtypes.StrValue(ls),
				vtypes.DateValue(ship),
				vtypes.DateValue(commit),
				vtypes.DateValue(receipt),
				vtypes.StrValue(lr.pick(instructs)),
				vtypes.StrValue(lr.pick(shipModes)),
				vtypes.StrValue(lr.comment(4)),
			}); err != nil {
				return nil, err
			}
		}
	}
	return b.Finish()
}

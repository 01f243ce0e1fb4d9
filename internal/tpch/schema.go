// Package tpch implements the TPC-H substrate of the paper's evaluation
// (§I-C): a deterministic dbgen-style data generator for all eight
// tables, a representative query suite as SQL text (queries_sql.go), and
// RunQuery, which runs a suite query on any of the three engines on the
// plan the planner makes of that text.
package tpch

import "vectorwise/internal/vtypes"

// Column index constants; names follow TPC-H.
const (
	// lineitem
	LOrderKey = iota
	LPartKey
	LSuppKey
	LLineNumber
	LQuantity
	LExtendedPrice
	LDiscount
	LTax
	LReturnFlag
	LLineStatus
	LShipDate
	LCommitDate
	LReceiptDate
	LShipInstruct
	LShipMode
	LComment
)

// orders columns.
const (
	OOrderKey = iota
	OCustKey
	OOrderStatus
	OTotalPrice
	OOrderDate
	OOrderPriority
	OClerk
	OShipPriority
	OComment
)

// customer columns.
const (
	CCustKey = iota
	CName
	CAddress
	CNationKey
	CPhone
	CAcctBal
	CMktSegment
	CComment
)

// supplier columns.
const (
	SSuppKey = iota
	SName
	SAddress
	SNationKey
	SPhone
	SAcctBal
	SComment
)

// part columns.
const (
	PPartKey = iota
	PName
	PMfgr
	PBrand
	PType
	PSize
	PContainer
	PRetailPrice
	PComment
)

// partsupp columns.
const (
	PSPartKey = iota
	PSSuppKey
	PSAvailQty
	PSSupplyCost
	PSComment
)

// nation columns.
const (
	NNationKey = iota
	NName
	NRegionKey
	NComment
)

// region columns.
const (
	RRegionKey = iota
	RName
	RComment
)

func i64col(name string) vtypes.Column  { return vtypes.Column{Name: name, Kind: vtypes.KindI64} }
func f64col(name string) vtypes.Column  { return vtypes.Column{Name: name, Kind: vtypes.KindF64} }
func strcol(name string) vtypes.Column  { return vtypes.Column{Name: name, Kind: vtypes.KindStr} }
func datecol(name string) vtypes.Column { return vtypes.Column{Name: name, Kind: vtypes.KindDate} }

// LineitemSchema returns the lineitem schema.
func LineitemSchema() *vtypes.Schema {
	return vtypes.NewSchema(
		i64col("l_orderkey"), i64col("l_partkey"), i64col("l_suppkey"), i64col("l_linenumber"),
		f64col("l_quantity"), f64col("l_extendedprice"), f64col("l_discount"), f64col("l_tax"),
		strcol("l_returnflag"), strcol("l_linestatus"),
		datecol("l_shipdate"), datecol("l_commitdate"), datecol("l_receiptdate"),
		strcol("l_shipinstruct"), strcol("l_shipmode"), strcol("l_comment"),
	)
}

// OrdersSchema returns the orders schema.
func OrdersSchema() *vtypes.Schema {
	return vtypes.NewSchema(
		i64col("o_orderkey"), i64col("o_custkey"), strcol("o_orderstatus"),
		f64col("o_totalprice"), datecol("o_orderdate"), strcol("o_orderpriority"),
		strcol("o_clerk"), i64col("o_shippriority"), strcol("o_comment"),
	)
}

// CustomerSchema returns the customer schema.
func CustomerSchema() *vtypes.Schema {
	return vtypes.NewSchema(
		i64col("c_custkey"), strcol("c_name"), strcol("c_address"), i64col("c_nationkey"),
		strcol("c_phone"), f64col("c_acctbal"), strcol("c_mktsegment"), strcol("c_comment"),
	)
}

// SupplierSchema returns the supplier schema.
func SupplierSchema() *vtypes.Schema {
	return vtypes.NewSchema(
		i64col("s_suppkey"), strcol("s_name"), strcol("s_address"), i64col("s_nationkey"),
		strcol("s_phone"), f64col("s_acctbal"), strcol("s_comment"),
	)
}

// PartSchema returns the part schema.
func PartSchema() *vtypes.Schema {
	return vtypes.NewSchema(
		i64col("p_partkey"), strcol("p_name"), strcol("p_mfgr"), strcol("p_brand"),
		strcol("p_type"), i64col("p_size"), strcol("p_container"),
		f64col("p_retailprice"), strcol("p_comment"),
	)
}

// PartsuppSchema returns the partsupp schema.
func PartsuppSchema() *vtypes.Schema {
	return vtypes.NewSchema(
		i64col("ps_partkey"), i64col("ps_suppkey"), i64col("ps_availqty"),
		f64col("ps_supplycost"), strcol("ps_comment"),
	)
}

// NationSchema returns the nation schema.
func NationSchema() *vtypes.Schema {
	return vtypes.NewSchema(
		i64col("n_nationkey"), strcol("n_name"), i64col("n_regionkey"), strcol("n_comment"),
	)
}

// RegionSchema returns the region schema.
func RegionSchema() *vtypes.Schema {
	return vtypes.NewSchema(i64col("r_regionkey"), strcol("r_name"), strcol("r_comment"))
}

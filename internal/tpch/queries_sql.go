package tpch

// The query suite, as SQL text: the one source of every TPC-H plan in
// the tree. Each statement goes through the public front end — lexer,
// parser, planner — and what the planner returns is what all three
// engines, the harness (RunQuery), vwbench and the differential suites
// execute. The answers are pinned by the rows of
// internal/enginetest/testdata/tpch_sf001.golden, not by a second plan.
//
// Twelve queries cover every operator class of the suite: scan-heavy
// aggregation (Q1, Q6), multi-way joins with sort/limit (Q3, Q10),
// five-way join aggregation (Q5), semi-join (Q4), CASE aggregation over
// joins (Q12, Q14), an OR-of-ANDs multi-predicate scan (Q19), and
// uncorrelated subqueries as one-row cross joins (Q2, Q11) and grouped
// semi-joins (Q18). The texts keep the spec's validation parameters,
// with these departures: Q2, Q11 and Q18 are the uncorrelated forms the
// planner's subquery rewrites cover (Q2 compares against the global
// average supply cost instead of the per-part minimum; Q18's quantity
// threshold is 250, not the spec's 300, so the SF 0.01 fixture keeps
// rows), and Q4's EXISTS subquery uses the dialect's SEMI JOIN form. The
// remaining ten queries need correlated subqueries or windowing the SQL
// subset does not cover.
// (The order the tables are written in is incidental: the planner orders
// the joins from its estimates.)

// SQLQuery is one suite query as SQL text.
type SQLQuery struct {
	// Name is "Q1" .. "Q19".
	Name string
	// SQL is the statement text.
	SQL string
}

// SQLSuite returns the implemented query set.
func SQLSuite() []SQLQuery {
	return []SQLQuery{
		{Name: "Q1", SQL: `
			SELECT l_returnflag, l_linestatus,
			       SUM(l_quantity) AS sum_qty,
			       SUM(l_extendedprice) AS sum_base_price,
			       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
			       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
			       AVG(l_quantity) AS avg_qty,
			       AVG(l_extendedprice) AS avg_price,
			       AVG(l_discount) AS avg_disc,
			       COUNT(*) AS count_order
			FROM lineitem
			WHERE l_shipdate <= DATE '1998-09-02'
			GROUP BY l_returnflag, l_linestatus
			ORDER BY l_returnflag, l_linestatus`},
		{Name: "Q2", SQL: `
			SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr
			FROM partsupp
			JOIN part ON ps_partkey = p_partkey
			JOIN supplier ON ps_suppkey = s_suppkey
			JOIN nation ON s_nationkey = n_nationkey
			JOIN region ON n_regionkey = r_regionkey
			WHERE r_name = 'EUROPE'
			  AND p_size = 15
			  AND ps_supplycost < (SELECT AVG(ps_supplycost) FROM partsupp)
			ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
			LIMIT 100`},
		{Name: "Q3", SQL: `
			SELECT l_orderkey, o_orderdate, o_shippriority,
			       SUM(l_extendedprice * (1 - l_discount)) AS revenue
			FROM lineitem
			JOIN orders ON l_orderkey = o_orderkey
			JOIN customer ON o_custkey = c_custkey
			WHERE c_mktsegment = 'BUILDING'
			  AND o_orderdate < DATE '1995-03-15'
			  AND l_shipdate > DATE '1995-03-15'
			GROUP BY l_orderkey, o_orderdate, o_shippriority
			ORDER BY revenue DESC, o_orderdate
			LIMIT 10`},
		{Name: "Q4", SQL: `
			SELECT o_orderpriority, COUNT(*) AS order_count
			FROM orders
			SEMI JOIN lineitem ON o_orderkey = l_orderkey
			WHERE o_orderdate BETWEEN DATE '1993-07-01' AND DATE '1993-09-30'
			  AND l_commitdate < l_receiptdate
			GROUP BY o_orderpriority
			ORDER BY o_orderpriority`},
		{Name: "Q5", SQL: `
			SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
			FROM lineitem
			JOIN orders ON l_orderkey = o_orderkey
			JOIN customer ON o_custkey = c_custkey
			JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
			JOIN nation ON s_nationkey = n_nationkey
			JOIN region ON n_regionkey = r_regionkey
			WHERE r_name = 'ASIA'
			  AND o_orderdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'
			GROUP BY n_name
			ORDER BY revenue DESC`},
		{Name: "Q6", SQL: `
			SELECT SUM(l_extendedprice * l_discount) AS revenue
			FROM lineitem
			WHERE l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'
			  AND l_discount BETWEEN 0.05 AND 0.07
			  AND l_quantity < 24`},
		{Name: "Q10", SQL: `
			SELECT c_custkey, c_name, c_acctbal, n_name, c_phone, c_address,
			       SUM(l_extendedprice * (1 - l_discount)) AS revenue
			FROM lineitem
			JOIN orders ON l_orderkey = o_orderkey
			JOIN customer ON o_custkey = c_custkey
			JOIN nation ON c_nationkey = n_nationkey
			WHERE o_orderdate BETWEEN DATE '1993-10-01' AND DATE '1993-12-31'
			  AND l_returnflag = 'R'
			GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address
			ORDER BY revenue DESC, c_custkey
			LIMIT 20`},
		{Name: "Q11", SQL: `
			SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value
			FROM partsupp
			JOIN supplier ON ps_suppkey = s_suppkey
			JOIN nation ON s_nationkey = n_nationkey
			WHERE n_name = 'GERMANY'
			GROUP BY ps_partkey
			HAVING SUM(ps_supplycost * ps_availqty) >
			       (SELECT SUM(ps_supplycost * ps_availqty) * 0.0001
			        FROM partsupp
			        JOIN supplier ON ps_suppkey = s_suppkey
			        JOIN nation ON s_nationkey = n_nationkey
			        WHERE n_name = 'GERMANY')
			ORDER BY value DESC, ps_partkey`},
		{Name: "Q12", SQL: `
			SELECT l_shipmode,
			       SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
			                THEN 1 ELSE 0 END) AS high_line_count,
			       SUM(CASE WHEN NOT (o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH')
			                THEN 1 ELSE 0 END) AS low_line_count
			FROM lineitem
			JOIN orders ON l_orderkey = o_orderkey
			WHERE l_shipmode IN ('MAIL', 'SHIP')
			  AND l_commitdate < l_receiptdate
			  AND l_shipdate < l_commitdate
			  AND l_receiptdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'
			GROUP BY l_shipmode
			ORDER BY l_shipmode`},
		{Name: "Q14", SQL: `
			SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%'
			                        THEN l_extendedprice * (1 - l_discount)
			                        ELSE 0 END)
			             / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue_pct
			FROM lineitem
			JOIN part ON l_partkey = p_partkey
			WHERE l_shipdate BETWEEN DATE '1995-09-01' AND DATE '1995-09-30'`},
		{Name: "Q18", SQL: `
			SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
			       SUM(l_quantity) AS total_qty
			FROM orders
			JOIN customer ON o_custkey = c_custkey
			JOIN lineitem ON o_orderkey = l_orderkey
			WHERE o_orderkey IN
			      (SELECT l_orderkey FROM lineitem
			       GROUP BY l_orderkey
			       HAVING SUM(l_quantity) > 250)
			GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
			ORDER BY o_totalprice DESC, o_orderkey
			LIMIT 100`},
		{Name: "Q19", SQL: `
			SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
			FROM lineitem
			JOIN part ON l_partkey = p_partkey
			WHERE l_shipmode IN ('AIR', 'REG AIR')
			  AND l_shipinstruct = 'DELIVER IN PERSON'
			  AND ((p_brand = 'Brand#12'
			        AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
			        AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5)
			    OR (p_brand = 'Brand#23'
			        AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
			        AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10)
			    OR (p_brand = 'Brand#34'
			        AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
			        AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15))`},
	}
}

// FindSQL returns the SQL text of a suite query by name.
func FindSQL(name string) (SQLQuery, bool) {
	for _, q := range SQLSuite() {
		if q.Name == name {
			return q, true
		}
	}
	return SQLQuery{}, false
}

// DDL returns CREATE TABLE statements for the eight TPC-H tables,
// matching the schemas in schema.go. Load order follows foreign-key
// dependencies (dimensions before facts).
func DDL() []string {
	return []string{
		`CREATE TABLE region (r_regionkey BIGINT, r_name VARCHAR, r_comment VARCHAR)`,
		`CREATE TABLE nation (n_nationkey BIGINT, n_name VARCHAR, n_regionkey BIGINT, n_comment VARCHAR)`,
		`CREATE TABLE supplier (s_suppkey BIGINT, s_name VARCHAR, s_address VARCHAR,
			s_nationkey BIGINT, s_phone VARCHAR, s_acctbal DOUBLE, s_comment VARCHAR)`,
		`CREATE TABLE customer (c_custkey BIGINT, c_name VARCHAR, c_address VARCHAR,
			c_nationkey BIGINT, c_phone VARCHAR, c_acctbal DOUBLE, c_mktsegment VARCHAR, c_comment VARCHAR)`,
		`CREATE TABLE part (p_partkey BIGINT, p_name VARCHAR, p_mfgr VARCHAR, p_brand VARCHAR,
			p_type VARCHAR, p_size BIGINT, p_container VARCHAR, p_retailprice DOUBLE, p_comment VARCHAR)`,
		`CREATE TABLE partsupp (ps_partkey BIGINT, ps_suppkey BIGINT, ps_availqty BIGINT,
			ps_supplycost DOUBLE, ps_comment VARCHAR)`,
		`CREATE TABLE orders (o_orderkey BIGINT, o_custkey BIGINT, o_orderstatus VARCHAR,
			o_totalprice DOUBLE, o_orderdate DATE, o_orderpriority VARCHAR,
			o_clerk VARCHAR, o_shippriority BIGINT, o_comment VARCHAR)`,
		`CREATE TABLE lineitem (l_orderkey BIGINT, l_partkey BIGINT, l_suppkey BIGINT,
			l_linenumber BIGINT, l_quantity DOUBLE, l_extendedprice DOUBLE, l_discount DOUBLE,
			l_tax DOUBLE, l_returnflag VARCHAR, l_linestatus VARCHAR, l_shipdate DATE,
			l_commitdate DATE, l_receiptdate DATE, l_shipinstruct VARCHAR, l_shipmode VARCHAR,
			l_comment VARCHAR)`,
	}
}

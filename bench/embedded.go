package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"

	vectorwise "vectorwise"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/tpch"
	"vectorwise/internal/tpchdb"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
)

// Scale factors of the benchmark at -scale 1.
const (
	sfLarge = 0.2  // scan_agg, join_sort: 1.2 M-row lineitem, far past L2
	sfSmall = 0.05 // serve_http: fits the caches, so fixed costs dominate
)

// Statement texts shared by workloads, the oracle and the staged driver.
var (
	sqlQ1, sqlQ6 = mustTPCH("Q1"), mustTPCH("Q6")

	sqlLikeStr = `SELECT COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem
		WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_comment LIKE '%special%'`
	sqlQ6Clustered = `SELECT SUM(l_extendedprice * l_discount) AS revenue, COUNT(*) AS n
		FROM lineitem_by_date
		WHERE l_shipdate BETWEEN ? AND ?
		  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`
	sqlSortFull = `SELECT l_orderkey, l_extendedprice, l_shipdate FROM lineitem
		WHERE l_shipdate >= DATE '1997-01-01'
		ORDER BY l_extendedprice DESC, l_orderkey`
	sqlAggHicard = `SELECT l_orderkey, SUM(l_quantity) AS qty, COUNT(*) AS n
		FROM lineitem GROUP BY l_orderkey`
)

func mustTPCH(name string) string {
	q, ok := tpch.FindSQL(name)
	if !ok {
		panic("bench: no TPC-H query " + name)
	}
	return q.SQL
}

// dateLo..dateHi is the span lineitem ship dates cover.
var (
	dateLo = vtypes.MustParseDate("1992-01-01")
	dateHi = vtypes.MustParseDate("1998-08-02")
)

// roundRand is the parameter stream of one client in one round: the same
// (seed, round, client) always yields the same statements.
func roundRand(seed uint64, round, client int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(round)<<8|uint64(client)))
}

// loadTPCH opens an in-memory database at the given parallelism and loads
// TPC-H through the public ingest path.
func loadTPCH(sf float64, parallelism int) (*vectorwise.DB, tpchdb.LoadStats, error) {
	db := vectorwise.OpenMemory()
	db.Parallelism = parallelism
	st, err := tpchdb.Load(db, sf)
	if err != nil {
		db.Close()
		return nil, st, err
	}
	return db, st, nil
}

// drain runs a SELECT through the public cursor, counting rows; with dig
// set it also folds every batch into a digest (untimed verification).
func drain(db *vectorwise.DB, sqlText string, dig bool, args ...any) (int64, *digest, error) {
	rows, err := db.QueryContext(context.Background(), sqlText, args...)
	if err != nil {
		return 0, nil, err
	}
	defer rows.Close()
	var d *digest
	if dig {
		d = newDigest(rows.Schema())
	}
	var n int64
	for {
		b, err := rows.NextBatch()
		if err != nil {
			return 0, nil, err
		}
		if b == nil {
			return n, d, nil
		}
		n += int64(b.N)
		if dig {
			d.addBatch(b)
		}
	}
}

// drainNoSkip is the oracle for seeded-parameter statements: the same
// statement with min/max data skipping switched off.
func drainNoSkip(db *vectorwise.DB, sqlText string, args ...any) (*digest, error) {
	db.SetDataSkipping(false)
	defer db.SetDataSkipping(true)
	_, d, err := drain(db, sqlText, true, args...)
	return d, err
}

// checkSeeded executes a seeded statement with a digest and compares it
// with the skipping-off oracle.
func checkSeeded(db *vectorwise.DB, kind, sqlText string, args ...any) (int64, error) {
	n, got, err := drain(db, sqlText, true, args...)
	if err != nil {
		return 0, err
	}
	want, err := drainNoSkip(db, sqlText, args...)
	if err != nil {
		return 0, err
	}
	return n, want.diff(kind, got)
}

// tupleOracle computes a statement's digest on the tuple-at-a-time
// reference engine, from the same planner output the vectorized engine
// compiles.
func tupleOracle(db *vectorwise.DB, sqlText string) (*digest, error) {
	st, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	defer st.Release()
	plan, err := (&sql.Planner{Cat: db.Catalog()}).PlanQuery(st.AST)
	if err != nil {
		return nil, err
	}
	plan = rewriter.SimplifyPlan(plan)
	rows, err := tupleengine.Run(plan, db.Catalog())
	if err != nil {
		return nil, err
	}
	d := newDigest(plan.Schema())
	d.addRows(rows)
	return d, nil
}

// goldenFile holds the reference digests of the fixed-text statements,
// keyed by scale factor then statement text id. It is produced once by
// -golden through the tuple-at-a-time engine and checked in.
type goldenFile struct {
	Scales map[string]map[string]*digest `json:"scales"`
}

const goldenPath = "golden.json"

func sfKey(sf float64) string { return strconv.FormatFloat(sf, 'g', -1, 64) }

func loadGolden() (*goldenFile, error) {
	g := &goldenFile{Scales: map[string]map[string]*digest{}}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// want returns the reference digest of a fixed-text statement. A scale
// the file does not cover (tests run far below benchmark scale) is
// computed on the spot by the same oracle and remembered.
func (g *goldenFile) want(db *vectorwise.DB, sf float64, id, sqlText string) (*digest, error) {
	key := sfKey(sf)
	if d, ok := g.Scales[key][id]; ok {
		return d, nil
	}
	d, err := tupleOracle(db, sqlText)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", id, err)
	}
	if g.Scales[key] == nil {
		g.Scales[key] = map[string]*digest{}
	}
	g.Scales[key][id] = d
	return d, nil
}

// checkGolden executes a fixed-text statement with a digest and compares
// it with the reference.
func checkGolden(db *vectorwise.DB, g *goldenFile, sf float64, kind, id, sqlText string) (int64, error) {
	n, got, err := drain(db, sqlText, true)
	if err != nil {
		return 0, err
	}
	want, err := g.want(db, sf, id, sqlText)
	if err != nil {
		return 0, err
	}
	return n, want.diff(kind, got)
}

// fixedOp builds an op for a fixed-text statement: checked against the
// reference digest in the verified warm-up round, which also records the
// row count that timed executions are checked by.
func fixedOp(db *vectorwise.DB, g *goldenFile, sf float64, rows map[string]int64, kind int, name, id, text string) op {
	return op{kind: kind, run: func(verify bool) (int64, error) {
		if verify {
			n, err := checkGolden(db, g, sf, name, id, text)
			rows[id] = n
			return n, err
		}
		n, _, err := drain(db, text, false)
		if err == nil && n != rows[id] {
			err = fmt.Errorf("%d rows, want %d", n, rows[id])
		}
		return n, err
	}}
}

// fixedTexts lists the fixed-text statements per benchmark scale factor.
var fixedTexts = func() map[float64]map[string]string {
	large := map[string]string{
		"q1": sqlQ1, "q6": sqlQ6, "like_str": sqlLikeStr,
		"sort_full": sqlSortFull, "agg_hicard": sqlAggHicard,
	}
	for _, q := range []string{"Q3", "Q4", "Q5", "Q10", "Q12", "Q18"} {
		large["q"+q[1:]] = mustTPCH(q)
	}
	return map[float64]map[string]string{
		sfLarge: large,
		sfSmall: {"q1": sqlQ1},
	}
}()

// writeGolden regenerates golden.json at the benchmark's scale factors.
func writeGolden() error {
	g := &goldenFile{Scales: map[string]map[string]*digest{}}
	for sf, texts := range fixedTexts {
		db, _, err := loadTPCH(sf, 1)
		if err != nil {
			return err
		}
		for id, text := range texts {
			if _, err := g.want(db, sf, id, text); err != nil {
				db.Close()
				return err
			}
			fmt.Fprintf(os.Stderr, "golden: sf %s %s done\n", sfKey(sf), id)
		}
		db.Close()
	}
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(raw, '\n'), 0o644)
}

package vectorwise_test

// BenchmarkQueryStreamVsCollect measures what the streaming cursor
// eliminates: DB.Query drains the pipeline through boxed []vtypes.Row
// (one allocation per row plus one Value box per cell), while
// Rows.NextBatch hands out the engine's own vectors. B/op is the
// headline metric (ReportAllocs); CI runs this in the bench job as
// smoke. The measured trajectory of the same effect is bench/'s
// stmt.stream.ms and alloc_mb_per_op.
//
// Two shapes bracket the effect:
//
//   - Q1: aggregation — the result is 4 groups, so boxing is a rounding
//     error and the two paths should be within noise of each other.
//     This sub-benchmark pins that the cursor adds no overhead.
//   - LineitemScan: a wide ~60K-row projection — the collect path boxes
//     every row, the stream path allocates O(batches).
//
// The test lives in an external package (vectorwise_test) because
// internal/tpchdb imports vectorwise.

import (
	"context"
	"testing"

	vectorwise "vectorwise"
	"vectorwise/internal/tpch"
	"vectorwise/internal/tpchdb"
)

func BenchmarkQueryStreamVsCollect(b *testing.B) {
	db := vectorwise.OpenMemory()
	if _, err := tpchdb.Load(db, 0.01); err != nil {
		b.Fatal(err)
	}
	q1, ok := tpch.FindSQL("Q1")
	if !ok {
		b.Fatal("Q1 missing from the SQL suite")
	}
	const scanSQL = `SELECT l_orderkey, l_extendedprice, l_discount, l_shipdate FROM lineitem`

	for _, bc := range []struct{ name, sql string }{
		{"Q1", q1.SQL},
		{"LineitemScan", scanSQL},
	} {
		b.Run(bc.name+"/Collect", func(b *testing.B) {
			b.ReportAllocs()
			var rows int
			for i := 0; i < b.N; i++ {
				res, err := db.Query(bc.sql)
				if err != nil {
					b.Fatal(err)
				}
				rows = len(res.Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
		b.Run(bc.name+"/Stream", func(b *testing.B) {
			b.ReportAllocs()
			var rows int
			for i := 0; i < b.N; i++ {
				cur, err := db.QueryContext(context.Background(), bc.sql)
				if err != nil {
					b.Fatal(err)
				}
				rows = 0
				for {
					batch, err := cur.NextBatch()
					if err != nil {
						b.Fatal(err)
					}
					if batch == nil {
						break
					}
					rows += batch.N
				}
				if err := cur.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

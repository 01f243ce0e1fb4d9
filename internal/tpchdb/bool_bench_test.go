package tpchdb

import (
	"testing"

	vectorwise "vectorwise"
)

// BenchmarkBooleanWhere times one disjunction three ways on lineitem at
// SF 0.05 (300 K rows, one core, plan cache warm): as a WHERE, as the
// conjunction of the same two comparisons (the selection-vector chain an
// OR should stay close to), and as a CASE condition — the same predicate
// behind expr.NewPredMap.
func BenchmarkBooleanWhere(b *testing.B) {
	db := vectorwise.OpenMemory()
	defer db.Close()
	db.SetParallelism(1)
	if _, err := Load(db, 0.05); err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct{ name, sql string }{
		{"or", `SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10 OR l_discount > 0.05`},
		{"and", `SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10 AND l_discount > 0.05`},
		{"case", `SELECT SUM(CASE WHEN l_quantity < 10 OR l_discount > 0.05 THEN 1 ELSE 0 END) FROM lineitem`},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package sql_test

import (
	"testing"

	"vectorwise/internal/sql"
	"vectorwise/internal/tpch"
)

// BenchmarkParse measures front-end throughput over the TPC-H SQL
// corpus with a reused arena — the warm-parse configuration the plan
// cache's normalizer and the server's hot path run in. b.SetBytes makes
// `go test -bench` report MB/s directly: one corpus op covers every
// suite query, and the per-query sub-benchmarks expose allocs/op for a
// single warm parse (the TestParseWarmAllocs guard pins the ceiling).
func BenchmarkParse(b *testing.B) {
	suite := tpch.SQLSuite()
	b.Run("corpus", func(b *testing.B) {
		a := sql.NewArena()
		var total int64
		for _, q := range suite {
			if _, err := sql.Parse(q.SQL, sql.WithArena(a)); err != nil {
				b.Fatal(err)
			}
			total += int64(len(q.SQL))
		}
		b.SetBytes(total)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range suite {
				if _, err := sql.Parse(q.SQL, sql.WithArena(a)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, q := range suite {
		q := q
		b.Run(q.Name, func(b *testing.B) {
			a := sql.NewArena()
			if _, err := sql.Parse(q.SQL, sql.WithArena(a)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(q.SQL)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sql.Parse(q.SQL, sql.WithArena(a)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

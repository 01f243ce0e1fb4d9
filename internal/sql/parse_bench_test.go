package sql_test

import (
	"testing"

	"vectorwise/internal/sql"
	"vectorwise/internal/tpch"
)

// BenchmarkParse measures front-end throughput over the TPC-H SQL
// corpus. b.SetBytes makes `go test -bench` report MB/s directly: one
// corpus op covers every suite query, and the per-query sub-benchmarks
// expose B/op and allocs/op for a single parse.
func BenchmarkParse(b *testing.B) {
	suite := tpch.SQLSuite()
	b.Run("corpus", func(b *testing.B) {
		var total int64
		for _, q := range suite {
			total += int64(len(q.SQL))
		}
		b.SetBytes(total)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range suite {
				if _, err := sql.Parse(q.SQL); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, q := range suite {
		q := q
		b.Run(q.Name, func(b *testing.B) {
			b.SetBytes(int64(len(q.SQL)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sql.Parse(q.SQL); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

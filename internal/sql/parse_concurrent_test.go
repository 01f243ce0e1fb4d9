package sql_test

import (
	"reflect"
	"sync"
	"testing"

	"vectorwise/internal/sql"
	"vectorwise/internal/tpch"
)

// Parse shares nothing between calls: eight goroutines parse the TPC-H
// suite and the fuzz seeds at once and each compares its own result
// (AST, placeholder count or error) with a serial parse of the same
// text. Under -race a package-level token or node buffer is a reported
// race; without it, a corrupted tree.
func TestParseConcurrent(t *testing.T) {
	texts := append([]string(nil), sql.FuzzSeeds...)
	for _, q := range tpch.SQLSuite() {
		texts = append(texts, q.SQL)
	}
	type result struct {
		st  *sql.Statement
		err error
	}
	want := make([]result, len(texts))
	for i, text := range texts {
		want[i].st, want[i].err = sql.Parse(text)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for k := range texts {
					i := (k + g*7) % len(texts) // goroutines out of step
					st, err := sql.Parse(texts[i])
					if !reflect.DeepEqual(result{st, err}, want[i]) {
						t.Errorf("goroutine %d: concurrent parse of %q differs from the serial one", g, texts[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

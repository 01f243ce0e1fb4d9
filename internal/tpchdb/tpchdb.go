// Package tpchdb loads the TPC-H substrate into a vectorwise.DB through
// the public ingest surface only: CREATE TABLE DDL via DB.Exec and
// columnar bulk loads via DB.LoadBatch. The repository's benchmark
// (bench/), the examples and the tests build their databases with it,
// so every measured number reflects the path a user can actually reach
// — no internal catalog surgery. GenerateCSV exports the same tables for
// loaders that ingest over a wire (cmd/vwbench's cluster experiment).
package tpchdb

import (
	"fmt"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// LoadStats describes one completed load.
type LoadStats struct {
	// Rows is the total row count across all eight tables.
	Rows int64
	// Elapsed covers generation plus ingest.
	Elapsed time.Duration
}

// Load creates the eight TPC-H tables in db and bulk-loads them at
// scale factor sf, one table at a time: each table's generated columns
// go straight to DB.LoadBatch, which encodes them once. Tables must not
// already exist.
func Load(db *vectorwise.DB, sf float64) (LoadStats, error) {
	start := time.Now()
	// A bad scale factor fails before any table is created.
	if _, err := tpch.SizesFor(sf); err != nil {
		return LoadStats{}, err
	}
	for _, ddl := range tpch.DDL() {
		if _, err := db.Exec(ddl); err != nil {
			return LoadStats{}, fmt.Errorf("tpchdb: %w", err)
		}
	}
	var total int64
	err := tpch.GenerateColumns(sf, func(name string, _ *vtypes.Schema, cols []any) error {
		n, err := db.LoadBatch(name, cols, nil)
		if err != nil {
			return fmt.Errorf("tpchdb: load %s: %w", name, err)
		}
		total += n
		return nil
	})
	if err != nil {
		return LoadStats{}, err
	}
	return LoadStats{Rows: total, Elapsed: time.Since(start)}, nil
}

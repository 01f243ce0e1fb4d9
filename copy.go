package vectorwise

// Bulk ingest: the public load path of the engine. The paper's product
// ships loads straight into compressed column storage rather than
// through the per-row transaction machinery, and this file reproduces
// that contract behind two entry points:
//
//   - [DB.CopyFrom] streams CSV text into a table;
//   - [DB.LoadBatch] appends complete column slices — the columnar fast
//     path that feeds storage.Builder directly, with no per-value boxing.
//
// Both are the tuple mover's one path (moveTable in mover.go) with the
// rebuild forced and the new rows appended to its builder: the table's
// stable image is rebuilt chunk-at-a-time (each full row group picks its
// own compression codec and records min/max statistics; a clean table's
// existing groups are adopted byte-for-byte with no recompression) with
// any pre-load PDT deltas folded in, under the DB write lock for exactly
// one epoch. A load commits atomically and never touches the log: until
// the new image is installed, the catalog and transaction state are
// untouched, so a load that fails mid-stream leaves no trace; the image
// is stamped with the applied-LSN watermark of the deltas it absorbed
// and persisted before it is installed, so recovery observes either the
// pre-load or the post-load table, never partial rows and never a delta
// twice. Other tables are not involved — their logged deltas stay in the
// WAL until their own images absorb them.

import (
	"encoding/csv"
	"fmt"
	"io"

	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// CopyOptions configure DB.CopyFrom.
type CopyOptions struct {
	// Comma is the field delimiter; 0 means ','.
	Comma rune
	// Header, when set, skips the first record (column headers).
	Header bool
	// Null is the field token read as SQL NULL in nullable columns; the
	// zero value treats empty fields there as NULL. Non-nullable columns
	// always parse the raw field.
	Null string
}

// CopyFrom bulk-loads CSV records from r into an existing table,
// returning the number of rows appended. Fields map positionally onto
// the table's columns: BIGINT and DOUBLE parse as decimal numbers, DATE
// as 'YYYY-MM-DD', BOOLEAN as true/false/t/f/1/0, and VARCHAR takes the
// field verbatim (use quoting for embedded delimiters or newlines, ""
// for embedded quotes). A malformed record — wrong arity, an
// unparseable value, or NULL in a non-nullable column — aborts the load
// with its line number, leaving the table, catalog and WAL exactly as
// they were.
//
// The stream is read and parsed before the DB write lock is taken, so a
// slow or large input never stalls concurrent queries; only the install
// of the finished image serializes with other statements.
func (db *DB) CopyFrom(table string, r io.Reader, opts CopyOptions) (int64, error) {
	// The catalog is internally synchronized and a table's schema never
	// changes once it exists, so this pre-lock read is safe.
	ent, err := db.cat.Get(table)
	if err != nil {
		return 0, err
	}
	rows, err := parseCSV(r, table, ent.Table.Schema(), opts)
	if err != nil {
		return 0, err
	}
	err = db.rebuildTable(table, func(b *storage.Builder) error {
		for i, row := range rows {
			if err := b.AppendRow(row); err != nil {
				return fmt.Errorf("vectorwise: copy %s: row %d: %w", table, i+1, err)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return int64(len(rows)), nil
}

// LoadBatch bulk-appends complete column slices to an existing table —
// []int64 for BIGINT and DATE columns, []float64 for DOUBLE, []string
// for VARCHAR, []bool for BOOLEAN — returning the number of rows
// appended. nulls may be nil (no NULLs), or hold a nil or row-length
// flag slice per column. This is the columnar fast path: values feed
// storage.Builder directly with no per-value boxing, so it is the
// preferred route for loaders that already hold columnar data (ETL
// pipelines; internal/tpchdb hands it the TPC-H generator's columns).
func (db *DB) LoadBatch(table string, cols []any, nulls [][]bool) (int64, error) {
	var n int64
	err := db.rebuildTable(table, func(b *storage.Builder) (err error) {
		if n, err = b.AppendColumns(cols, nulls); err != nil {
			return fmt.Errorf("vectorwise: load %s: %w", table, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// parseCSV converts the whole stream into boxed rows, with line-numbered
// errors. Runs outside the DB lock.
func parseCSV(r io.Reader, table string, schema *vtypes.Schema, opts CopyOptions) ([]vtypes.Row, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = schema.Len()
	cr.ReuseRecord = true
	line := 0
	if opts.Header {
		if _, err := cr.Read(); err != nil && err != io.EOF {
			return nil, fmt.Errorf("vectorwise: copy %s: %w", table, err)
		}
		line++
	}
	var rows []vtypes.Row
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("vectorwise: copy %s: %w", table, err)
		}
		line++
		row := make(vtypes.Row, schema.Len())
		for c := 0; c < schema.Len(); c++ {
			col := schema.Col(c)
			v, err := vtypes.ParseCSVField(rec[c], col, opts.Null)
			if err != nil {
				return nil, fmt.Errorf("vectorwise: copy %s: line %d, column %q: %w", table, line, col.Name, err)
			}
			row[c] = v
		}
		rows = append(rows, row)
	}
}

package tpchdb

// CSV export of the generated TPC-H tables, for loaders that ingest
// over a wire instead of in-process — the cluster coordinator's
// /v1/load fan-out in particular. Formatting round-trips exactly
// through DB.CopyFrom's field parsing: integers in decimal, doubles via
// strconv's shortest round-trip form, dates as YYYY-MM-DD.

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strconv"

	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// GenerateCSV generates the eight TPC-H tables at scale factor sf and
// returns each table's rows as CSV bytes (no header).
func GenerateCSV(sf float64) (map[string][]byte, error) {
	out := make(map[string][]byte)
	err := tpch.GenerateColumns(sf, func(name string, schema *vtypes.Schema, cols []any) error {
		data, err := tableCSV(schema, cols)
		if err != nil {
			return fmt.Errorf("tpchdb: csv %s: %w", name, err)
		}
		out[name] = data
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// tableCSV formats a generated table's columns, which hold no NULL and
// lead with the table's BIGINT key.
func tableCSV(schema *vtypes.Schema, cols []any) ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	rec := make([]string, len(cols))
	for i := range cols[0].([]int64) {
		for c, col := range cols {
			rec[c] = formatField(col, schema.Col(c).Kind, i)
		}
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}

func formatField(col any, k vtypes.Kind, i int) string {
	switch s := col.(type) {
	case []int64:
		if k == vtypes.KindDate {
			return vtypes.FormatDate(s[i])
		}
		return strconv.FormatInt(s[i], 10)
	case []float64:
		return strconv.FormatFloat(s[i], 'g', -1, 64)
	default:
		return col.([]string)[i]
	}
}

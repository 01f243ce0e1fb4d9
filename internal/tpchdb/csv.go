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

	"vectorwise/internal/storage"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// GenerateCSV generates the eight TPC-H tables at scale factor sf and
// returns each table's rows as CSV bytes (no header; NULLs as empty
// fields).
func GenerateCSV(sf float64) (map[string][]byte, error) {
	cat, err := tpch.Generate(sf, 0)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	for _, name := range cat.Names() {
		tbl, _, err := cat.Resolve(name)
		if err != nil {
			return nil, err
		}
		data, err := tableCSV(tbl)
		if err != nil {
			return nil, fmt.Errorf("tpchdb: csv %s: %w", name, err)
		}
		out[name] = data
	}
	return out, nil
}

func tableCSV(t *storage.Table) ([]byte, error) {
	schema := t.Schema()
	cols := make([]*vector.Vector, schema.Len())
	for c := range cols {
		v, err := t.ReadAllColumn(c)
		if err != nil {
			return nil, err
		}
		cols[c] = v
	}
	var rows int
	if len(cols) > 0 {
		rows = cols[0].Len()
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	rec := make([]string, schema.Len())
	for i := 0; i < rows; i++ {
		for c := range cols {
			rec[c] = formatField(cols[c], schema.Col(c).Kind, i)
		}
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}

func formatField(v *vector.Vector, k vtypes.Kind, i int) string {
	if v.Nulls != nil && v.Nulls[i] {
		return "" // CopyFrom's default NULL token for nullable columns
	}
	switch k {
	case vtypes.KindI64:
		return strconv.FormatInt(v.I64[i], 10)
	case vtypes.KindF64:
		return strconv.FormatFloat(v.F64[i], 'g', -1, 64)
	case vtypes.KindDate:
		return vtypes.FormatDate(v.I64[i])
	case vtypes.KindBool:
		if v.B[i] {
			return "true"
		}
		return "false"
	default:
		return v.Str[i]
	}
}

package storage

import (
	"fmt"
	"slices"
	"strings"

	"vectorwise/internal/compress"
	"vectorwise/internal/vtypes"
)

// Builder accumulates rows column-wise and flushes them into compressed
// row groups, choosing a codec per chunk (the per-chunk adaptivity of
// the Vectorwise storage layer: a sorted key column gets PFOR-DELTA
// while a status column in the same group gets RLE or PDICT, and a DOUBLE
// column of few distinct values gets PDICT too).
type Builder struct {
	name      string
	schema    *vtypes.Schema
	groupRows int

	// Column accumulators for the group under construction.
	i64s  [][]int64
	f64s  [][]float64
	strs  [][]string
	bools [][]bool
	nulls [][]bool
	n     int

	meta TableMeta
	data []byte
}

// NewBuilder creates a builder for the named table. groupRows <= 0
// selects DefaultGroupRows.
func NewBuilder(name string, schema *vtypes.Schema, groupRows int) *Builder {
	if groupRows <= 0 {
		groupRows = DefaultGroupRows
	}
	b := &Builder{
		name:      name,
		schema:    schema,
		groupRows: groupRows,
		i64s:      make([][]int64, schema.Len()),
		f64s:      make([][]float64, schema.Len()),
		strs:      make([][]string, schema.Len()),
		bools:     make([][]bool, schema.Len()),
		nulls:     make([][]bool, schema.Len()),
	}
	b.meta.Name = name
	b.meta.Cols = schema.Clone().Cols
	return b
}

// AppendRow adds one row. Values must match the schema kinds; NULLs are
// allowed only in nullable columns.
func (b *Builder) AppendRow(row vtypes.Row) error {
	if len(row) != b.schema.Len() {
		return fmt.Errorf("storage: row arity %d != schema arity %d", len(row), b.schema.Len())
	}
	for c, col := range b.schema.Cols {
		v := row[c]
		if v.Null {
			if !col.Nullable {
				return fmt.Errorf("storage: NULL in non-nullable column %q", col.Name)
			}
			b.nulls[c] = append(b.nulls[c], true)
			// Store the safe value (zero of the class).
			switch col.Kind.StorageClass() {
			case vtypes.ClassI64:
				b.i64s[c] = append(b.i64s[c], 0)
			case vtypes.ClassF64:
				b.f64s[c] = append(b.f64s[c], 0)
			case vtypes.ClassStr:
				b.strs[c] = append(b.strs[c], "")
			case vtypes.ClassBool:
				b.bools[c] = append(b.bools[c], false)
			}
			continue
		}
		if v.Kind.StorageClass() != col.Kind.StorageClass() {
			return fmt.Errorf("storage: column %q: kind %v incompatible with %v", col.Name, v.Kind, col.Kind)
		}
		if col.Nullable {
			b.nulls[c] = append(b.nulls[c], false)
		}
		switch col.Kind.StorageClass() {
		case vtypes.ClassI64:
			b.i64s[c] = append(b.i64s[c], v.I64)
		case vtypes.ClassF64:
			b.f64s[c] = append(b.f64s[c], v.F64)
		case vtypes.ClassStr:
			b.strs[c] = append(b.strs[c], v.Str)
		case vtypes.ClassBool:
			b.bools[c] = append(b.bools[c], v.B)
		}
	}
	b.n++
	if b.n >= b.groupRows {
		return b.flushGroup()
	}
	return nil
}

// appendChunk compresses payload bytes into the data section and returns
// its ChunkMeta.
func (b *Builder) appendChunk(raw []byte, codec compress.Codec) ChunkMeta {
	off := int64(len(b.data))
	b.data = append(b.data, raw...)
	return ChunkMeta{Codec: codec, Offset: off, Len: int64(len(raw))}
}

// flushGroup compresses the accumulated columns into a row group.
func (b *Builder) flushGroup() error {
	if b.n == 0 {
		return nil
	}
	grp := GroupMeta{Rows: b.n}
	anyNullable := false
	for _, col := range b.schema.Cols {
		if col.Nullable {
			anyNullable = true
		}
	}
	if anyNullable {
		grp.NullCols = make([]ChunkMeta, b.schema.Len())
	}
	for c, col := range b.schema.Cols {
		var cm ChunkMeta
		switch col.Kind.StorageClass() {
		case vtypes.ClassI64:
			vals := b.i64s[c]
			codec := compress.ChooseI64Codec(vals)
			raw, err := compress.CompressI64(vals, codec)
			if err != nil {
				return err
			}
			cm = b.appendChunk(raw, codec)
			cm.HasStats = true
			cm.MinI64, cm.MaxI64 = minMaxI64(vals)
			cm.Sorted = !slices.Contains(b.nulls[c], true) && slices.IsSorted(vals)
			b.i64s[c] = vals[:0]
		case vtypes.ClassF64:
			vals := b.f64s[c]
			raw, err := compress.CompressF64(vals, compress.ChooseF64Codec(vals))
			if err != nil {
				return err
			}
			actual, _, _, _ := compress.ReadHeader(raw)
			cm = b.appendChunk(raw, actual)
			cm.MinF64, cm.MaxF64, cm.HasStats = minMaxF64(vals)
			b.f64s[c] = vals[:0]
		case vtypes.ClassStr:
			vals := b.strs[c]
			codec := compress.ChooseStrCodec(vals)
			raw, err := compress.CompressStr(vals, codec)
			if err != nil {
				return err
			}
			// CompressStr may have fallen back; record the actual codec.
			actual, _, _, _ := compress.ReadHeader(raw)
			cm = b.appendChunk(raw, actual)
			cm.HasStats = true
			cm.MinStr, cm.MaxStr = minMaxStr(vals)
			b.strs[c] = vals[:0]
		case vtypes.ClassBool:
			vals := b.bools[c]
			raw, err := compress.CompressBool(vals)
			if err != nil {
				return err
			}
			cm = b.appendChunk(raw, compress.CodecBoolPack)
			b.bools[c] = vals[:0]
		}
		grp.Cols = append(grp.Cols, cm)
		if col.Nullable {
			raw, err := compress.CompressBool(b.nulls[c])
			if err != nil {
				return err
			}
			grp.NullCols[c] = b.appendChunk(raw, compress.CodecBoolPack)
			b.nulls[c] = b.nulls[c][:0]
		}
	}
	b.meta.Groups = append(b.meta.Groups, grp)
	b.meta.Rows += int64(b.n)
	b.n = 0
	return nil
}

// Finish flushes the final partial group and returns the built table.
func (b *Builder) Finish() (*Table, error) {
	if err := b.flushGroup(); err != nil {
		return nil, err
	}
	return &Table{Meta: b.meta, data: b.data}, nil
}

func minMaxI64(vals []int64) (mn, mx int64) {
	if len(vals) == 0 {
		return 0, 0
	}
	mn, mx = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// minMaxF64 returns the chunk's range; ok is false when a NaN, which
// orders against nothing, leaves the chunk without statistics.
func minMaxF64(vals []float64) (mn, mx float64, ok bool) {
	if len(vals) == 0 {
		return 0, 0, true
	}
	mn, mx = vals[0], vals[0]
	for _, v := range vals {
		if v != v {
			return 0, 0, false
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx, true
}

// minMaxStr returns copies of the least and greatest of vals: a table's
// metadata must not hold a view of the image its rows were read from
// (package vector), which would keep that image alive with it.
func minMaxStr(vals []string) (mn, mx string) {
	if len(vals) == 0 {
		return "", ""
	}
	mn, mx = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return strings.Clone(mn), strings.Clone(mx)
}

// colLen returns the length of a raw column slice, or -1 for an
// unsupported slice type.
func colLen(c any) int {
	switch s := c.(type) {
	case []int64:
		return len(s)
	case []float64:
		return len(s)
	case []string:
		return len(s)
	case []bool:
		return len(s)
	}
	return -1
}

// AppendColumns bulk-appends complete column slices — []int64 (BIGINT,
// DATE), []float64, []string, []bool — without boxing values into rows:
// the columnar fast path of the bulk loader. All slices must have equal
// length and match their schema column's storage class; nulls may be nil
// (no NULLs anywhere), or hold a nil or row-length slice per column.
// Rows are accumulated chunk-at-a-time, so each full group still flushes
// with its own codec choice and min/max statistics.
func (b *Builder) AppendColumns(cols []any, nulls [][]bool) (int64, error) {
	if len(cols) != b.schema.Len() {
		return 0, fmt.Errorf("storage: %d column slices for %d schema columns", len(cols), b.schema.Len())
	}
	if nulls != nil && len(nulls) != b.schema.Len() {
		return 0, fmt.Errorf("storage: %d null slices for %d schema columns", len(nulls), b.schema.Len())
	}
	rows := -1
	for i, c := range cols {
		l := colLen(c)
		if l < 0 {
			return 0, fmt.Errorf("storage: column %d has unsupported slice type %T", i, c)
		}
		if rows == -1 {
			rows = l
		} else if rows != l {
			return 0, fmt.Errorf("storage: column %d has %d rows, want %d", i, l, rows)
		}
		col := b.schema.Col(i)
		okType := false
		switch col.Kind.StorageClass() {
		case vtypes.ClassI64:
			_, okType = c.([]int64)
		case vtypes.ClassF64:
			_, okType = c.([]float64)
		case vtypes.ClassStr:
			_, okType = c.([]string)
		case vtypes.ClassBool:
			_, okType = c.([]bool)
		}
		if !okType {
			return 0, fmt.Errorf("storage: column %q: slice type %T incompatible with %v", col.Name, c, col.Kind)
		}
		if nulls != nil && nulls[i] != nil {
			if len(nulls[i]) != rows {
				return 0, fmt.Errorf("storage: column %q: %d null flags for %d rows", col.Name, len(nulls[i]), rows)
			}
			if !col.Nullable {
				for r, isNull := range nulls[i] {
					if isNull {
						return 0, fmt.Errorf("storage: row %d: NULL in non-nullable column %q", r+1, col.Name)
					}
				}
			}
		}
	}
	if rows <= 0 {
		return 0, nil
	}
	for r := 0; r < rows; r++ {
		for c, col := range b.schema.Cols {
			isNull := nulls != nil && nulls[c] != nil && nulls[c][r]
			if col.Nullable {
				b.nulls[c] = append(b.nulls[c], isNull)
			}
			switch s := cols[c].(type) {
			case []int64:
				b.i64s[c] = append(b.i64s[c], s[r])
			case []float64:
				b.f64s[c] = append(b.f64s[c], s[r])
			case []string:
				b.strs[c] = append(b.strs[c], s[r])
			case []bool:
				b.bools[c] = append(b.bools[c], s[r])
			}
		}
		b.n++
		if b.n >= b.groupRows {
			if err := b.flushGroup(); err != nil {
				return 0, err
			}
		}
	}
	return int64(rows), nil
}

// AppendTable adopts another table's row groups wholesale: the raw
// compressed chunks are copied byte-for-byte with their offsets
// rebased, so no decompression, boxing or re-encoding happens. This is
// how the bulk loader carries an existing clean table into a rebuild in
// O(bytes) instead of O(rows × columns). The source schema must match,
// and no partial group may be buffered (adopted groups keep their
// original row ranges).
func (b *Builder) AppendTable(t *Table) error {
	if b.n != 0 {
		return fmt.Errorf("storage: AppendTable with %d buffered rows (flush boundary required)", b.n)
	}
	src := t.Schema()
	if src.Len() != b.schema.Len() {
		return fmt.Errorf("storage: AppendTable schema arity %d != %d", src.Len(), b.schema.Len())
	}
	for i, col := range b.schema.Cols {
		sc := src.Col(i)
		if sc.Name != col.Name || sc.Kind != col.Kind || sc.Nullable != col.Nullable {
			return fmt.Errorf("storage: AppendTable column %d: %+v != %+v", i, sc, col)
		}
	}
	base := int64(len(b.data))
	b.data = append(b.data, t.data...)
	shift := func(cm ChunkMeta) ChunkMeta {
		if cm.Len > 0 {
			cm.Offset += base
		}
		return cm
	}
	for _, g := range t.Meta.Groups {
		ng := GroupMeta{Rows: g.Rows, Cols: make([]ChunkMeta, len(g.Cols))}
		for i, cm := range g.Cols {
			ng.Cols[i] = shift(cm)
		}
		if g.NullCols != nil {
			ng.NullCols = make([]ChunkMeta, len(g.NullCols))
			for i, cm := range g.NullCols {
				ng.NullCols[i] = shift(cm)
			}
		}
		b.meta.Groups = append(b.meta.Groups, ng)
	}
	b.meta.Rows += t.Meta.Rows
	return nil
}

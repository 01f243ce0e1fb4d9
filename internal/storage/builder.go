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
	// pieces are the chunks of the finished groups and the images
	// AppendTable adopted, each at its data-section offset, a multiple
	// of 8; size is where the next one may end at the earliest. Finish
	// lays them out in one buffer of exactly size bytes, so the data
	// section is copied once however it grew.
	pieces []piece
	size   int64
}

// piece is bytes bound for the data section at offset off.
type piece struct {
	off int64
	b   []byte
}

// NewBuilder creates a builder for the named table. groupRows <= 0
// selects DefaultGroupRows, and more than MaxGroupRows selects that.
func NewBuilder(name string, schema *vtypes.Schema, groupRows int) *Builder {
	if groupRows <= 0 {
		groupRows = DefaultGroupRows
	}
	groupRows = min(groupRows, MaxGroupRows)
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
		switch {
		case v.Null && !col.Nullable:
			return &vtypes.NotNullError{Table: b.meta.Name, Column: col.Name}
		case v.Null:
			v = vtypes.Value{Null: true} // store the safe value, the zero of the class
		case v.Kind.StorageClass() != col.Kind.StorageClass():
			return fmt.Errorf("storage: column %q: kind %v incompatible with %v", col.Name, v.Kind, col.Kind)
		}
		if col.Nullable {
			b.nulls[c] = append(b.nulls[c], v.Null)
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

// appendChunk places a compressed chunk at the next 8-aligned offset of
// the data section and returns its ChunkMeta.
func (b *Builder) appendChunk(raw []byte, codec compress.Codec) ChunkMeta {
	return ChunkMeta{Codec: codec, Offset: b.place(raw), Len: int64(len(raw))}
}

// place adds bytes to the data section at its next 8-aligned offset and
// returns that offset.
func (b *Builder) place(raw []byte) int64 {
	off := align8(b.size)
	b.pieces = append(b.pieces, piece{off, raw})
	b.size = off + int64(len(raw))
	return off
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
			cm = b.appendChunk(compress.EncodeI64(vals))
			cm.HasStats = true
			cm.MinI64, cm.MaxI64 = minMaxI64(vals)
			cm.Sorted = !slices.Contains(b.nulls[c], true) && slices.IsSorted(vals)
			b.i64s[c] = vals[:0]
		case vtypes.ClassF64:
			vals := b.f64s[c]
			cm = b.appendChunk(compress.EncodeF64(vals))
			cm.MinF64, cm.MaxF64, cm.HasStats = minMaxF64(vals)
			b.f64s[c] = vals[:0]
		case vtypes.ClassStr:
			vals := b.strs[c]
			raw, codec, err := compress.EncodeStr(vals)
			if err != nil {
				return err
			}
			cm = b.appendChunk(raw, codec)
			cm.HasStats = true
			cm.MinStr, cm.MaxStr = minMaxStr(vals)
			b.strs[c] = vals[:0]
		case vtypes.ClassBool:
			cm = b.appendChunk(compress.EncodeBool(b.bools[c]), compress.CodecBoolPack)
			b.bools[c] = b.bools[c][:0]
		}
		grp.Cols = append(grp.Cols, cm)
		if col.Nullable {
			grp.NullCols[c] = b.appendChunk(compress.EncodeBool(b.nulls[c]), compress.CodecBoolPack)
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
	data := make([]byte, b.size)
	for _, p := range b.pieces {
		copy(data[p.off:], p.b)
	}
	return &Table{Meta: b.meta, data: data}, nil
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

// colOf returns the storage class and length of a raw column slice, or a
// length of -1 for an unsupported slice type.
func colOf(c any) (vtypes.Class, int) {
	switch s := c.(type) {
	case []int64:
		return vtypes.ClassI64, len(s)
	case []float64:
		return vtypes.ClassF64, len(s)
	case []string:
		return vtypes.ClassStr, len(s)
	case []bool:
		return vtypes.ClassBool, len(s)
	}
	return 0, -1
}

// appendSafe appends vals to dst, writing the safe value, the zero of
// the class, under each NULL flag set in nulls (nil: none), as AppendRow
// does: the caller's slices are not written.
func appendSafe[T any](dst, vals []T, nulls []bool) []T {
	at := len(dst)
	dst = append(dst, vals...)
	for i, isNull := range nulls {
		if isNull {
			var zero T
			dst[at+i] = zero
		}
	}
	return dst
}

// AppendColumns bulk-appends complete column slices — []int64 (BIGINT,
// DATE), []float64, []string, []bool — without boxing values into rows:
// the columnar fast path of the bulk loader. All slices must have equal
// length and match their schema column's storage class; nulls may be nil
// (no NULLs anywhere), or hold a nil or row-length slice per column.
// Each column's rows up to the next group boundary are appended at once,
// so each full group still flushes with its own codec choice and min/max
// statistics.
func (b *Builder) AppendColumns(cols []any, nulls [][]bool) (int64, error) {
	if len(cols) != b.schema.Len() {
		return 0, fmt.Errorf("storage: %d column slices for %d schema columns", len(cols), b.schema.Len())
	}
	if nulls != nil && len(nulls) != b.schema.Len() {
		return 0, fmt.Errorf("storage: %d null slices for %d schema columns", len(nulls), b.schema.Len())
	}
	rows := -1
	for i, c := range cols {
		col := b.schema.Col(i)
		switch class, l := colOf(c); {
		case l < 0:
			return 0, fmt.Errorf("storage: column %d has unsupported slice type %T", i, c)
		case class != col.Kind.StorageClass():
			return 0, fmt.Errorf("storage: column %q: slice type %T incompatible with %v", col.Name, c, col.Kind)
		case rows >= 0 && l != rows:
			return 0, fmt.Errorf("storage: column %d has %d rows, want %d", i, l, rows)
		default:
			rows = l
		}
		if nulls != nil && nulls[i] != nil {
			if len(nulls[i]) != rows {
				return 0, fmt.Errorf("storage: column %q: %d null flags for %d rows", col.Name, len(nulls[i]), rows)
			}
			if !col.Nullable {
				for r, isNull := range nulls[i] {
					if isNull {
						return 0, fmt.Errorf("storage: row %d: %w", r+1, &vtypes.NotNullError{Table: b.meta.Name, Column: col.Name})
					}
				}
			}
		}
	}
	if rows <= 0 {
		return 0, nil
	}
	for r := 0; r < rows; {
		w := min(rows-r, b.groupRows-b.n) // the rows up to the next group boundary
		for c, col := range b.schema.Cols {
			var ns []bool // this stretch's NULL flags, nil for none
			if nulls != nil && nulls[c] != nil {
				ns = nulls[c][r : r+w]
			}
			if col.Nullable {
				if ns != nil {
					b.nulls[c] = append(b.nulls[c], ns...)
				} else {
					b.nulls[c] = append(b.nulls[c], make([]bool, w)...)
				}
			}
			switch s := cols[c].(type) {
			case []int64:
				b.i64s[c] = appendSafe(b.i64s[c], s[r:r+w], ns)
			case []float64:
				b.f64s[c] = appendSafe(b.f64s[c], s[r:r+w], ns)
			case []string:
				b.strs[c] = appendSafe(b.strs[c], s[r:r+w], ns)
			case []bool:
				b.bools[c] = appendSafe(b.bools[c], s[r:r+w], ns)
			}
		}
		r, b.n = r+w, b.n+w
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
// rebased by a multiple of 8, so they stay 8-aligned, and no
// decompression, boxing or re-encoding happens. This is
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
	base := b.place(t.data)
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

// Package storage implements Vectorwise's columnar table storage: tables
// are sequences of row groups (the PAX granularity — all columns of a
// group stored adjacently), and within a group each column is a
// contiguous, independently compressed chunk (the DSM granularity).
// This is the hybrid PAX/DSM layout of paper ref [3]: scans touch only
// the chunks of the columns they need, while a row group keeps one
// row-range's columns close together on disk.
//
// Each chunk carries min/max statistics enabling scan-range pruning, and
// nullable columns store a separate boolean indicator chunk next to the
// "safe value" chunk — the two-column NULL representation of §I-B.
package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"

	"vectorwise/internal/compress"
	"vectorwise/internal/vtypes"
)

// DefaultGroupRows is the default row-group size. 64K rows keeps chunk
// compression effective while letting min/max pruning skip large ranges.
const DefaultGroupRows = 64 * 1024

// ChunkMeta describes one compressed column chunk within a row group.
type ChunkMeta struct {
	// Codec is the compression codec actually used.
	Codec compress.Codec `json:"codec"`
	// Offset and Len locate the chunk in the table's data section.
	Offset int64 `json:"off"`
	Len    int64 `json:"len"`
	// Min/Max statistics (valid when HasStats). Only the fields matching
	// the column's storage class are meaningful.
	HasStats bool    `json:"stats,omitempty"`
	MinI64   int64   `json:"mini,omitempty"`
	MaxI64   int64   `json:"maxi,omitempty"`
	MinF64   float64 `json:"minf,omitempty"`
	MaxF64   float64 `json:"maxf,omitempty"`
	MinStr   string  `json:"mins,omitempty"`
	MaxStr   string  `json:"maxs,omitempty"`
	// Sorted says the chunk's values never decrease in row order. Only a
	// BIGINT or DATE chunk that holds no NULL may carry it; absent means
	// unknown. A scan binary-searches a Sorted chunk (storage.Skip).
	// A nullable column's chunk may be Sorted, but Table.Ordered still
	// rejects the column, so no NULL can reach the ordered operators.
	Sorted bool `json:"sorted,omitempty"`
}

// GroupMeta describes one row group.
type GroupMeta struct {
	// Rows is the number of rows in the group.
	Rows int `json:"rows"`
	// Cols holds one value chunk per schema column.
	Cols []ChunkMeta `json:"cols"`
	// NullCols holds the indicator chunk for nullable columns; entries
	// for non-nullable columns have Len == 0.
	NullCols []ChunkMeta `json:"nullcols,omitempty"`
}

// TableMeta is the persistent metadata of a table.
type TableMeta struct {
	// Name is the table name (catalog key).
	Name string `json:"name"`
	// Cols is the schema.
	Cols []vtypes.Column `json:"schema"`
	// Groups lists the row groups in storage order.
	Groups []GroupMeta `json:"groups"`
	// Rows is the total stable row count.
	Rows int64 `json:"rowcount"`
	// AppliedLSN is the highest WAL LSN whose effects are folded into
	// this stable image (0 = none). Recovery replays only committed WAL
	// records with a higher LSN, so a stable image rebuilt and swapped
	// in by the tuple mover (or a checkpoint) makes the records it
	// absorbed inert without requiring an atomic WAL truncation.
	AppliedLSN uint64 `json:"applied_lsn,omitempty"`
}

// Table is a loaded columnar table: metadata plus its raw data section.
// The data section lives fully in memory once loaded; a buffer manager
// interposes on chunk access to model I/O (caching, bandwidth) without
// complicating this layer.
//
// data is never written once the Table is published: Builder only
// appends to its buffer past the bytes a finished Table holds, and Open
// reads a fresh buffer with os.ReadFile. So a decoded arena vector may
// alias a plain VARCHAR chunk's bytes in place (DecodeChunk), and a
// string viewing them stays valid. The buffer pool keys its entries by
// *Table, so an aliased image is retained no longer than its chunks are.
type Table struct {
	Meta TableMeta
	data []byte
}

// Schema reconstructs the vtypes.Schema of the table.
func (t *Table) Schema() *vtypes.Schema { return &vtypes.Schema{Cols: t.Meta.Cols} }

// Rows returns the stable row count.
func (t *Table) Rows() int64 { return t.Meta.Rows }

// Groups returns the number of row groups.
func (t *Table) Groups() int { return len(t.Meta.Groups) }

// GroupRows returns the row count of group g.
func (t *Table) GroupRows(g int) int { return t.Meta.Groups[g].Rows }

// Ordered reports whether column c never decreases over the table in
// storage order: every chunk of it is Sorted, and no group's maximum
// exceeds the next group's minimum. Only a NOT NULL BIGINT or DATE
// column can be, even in a table with no rows. A scan reads a
// subsequence of that order, whichever groups it prunes or partitions
// away.
func (t *Table) Ordered(c int) bool {
	if col := t.Meta.Cols[c]; col.Nullable || col.Kind.StorageClass() != vtypes.ClassI64 {
		return false
	}
	for g := range t.Meta.Groups {
		cm := &t.Meta.Groups[g].Cols[c]
		if !cm.Sorted || g > 0 && cm.MinI64 < t.Meta.Groups[g-1].Cols[c].MaxI64 {
			return false
		}
	}
	return true
}

// DataSize returns the total compressed size in bytes of the data
// section (the quantity a scan must read from "disk").
func (t *Table) DataSize() int64 { return int64(len(t.data)) }

// RawChunk returns the compressed bytes of the value chunk (group g,
// column c). The returned slice aliases the data section; callers must
// not modify it.
func (t *Table) RawChunk(g, c int) []byte {
	m := t.Meta.Groups[g].Cols[c]
	return t.data[m.Offset : m.Offset+m.Len]
}

// RawNullChunk returns the indicator chunk bytes, or nil if the column
// has none.
func (t *Table) RawNullChunk(g, c int) []byte {
	grp := t.Meta.Groups[g]
	if len(grp.NullCols) <= c || grp.NullCols[c].Len == 0 {
		return nil
	}
	m := grp.NullCols[c]
	return t.data[m.Offset : m.Offset+m.Len]
}

// magic identifies the on-disk format: "VWTB" and the big-endian format
// version. Version 2 lays a plain VARCHAR chunk out as every row's length,
// then every row's bytes; version 1 interleaved them and is not read.
var magic = [8]byte{'V', 'W', 'T', 'B', 0, 0, 0, formatVersion}

const formatVersion = 2

// Save writes the table as a single file:
//
//	magic(8) | metaLen(8) | meta JSON | data section
//
// The write is crash-atomic: the image lands in a temp file first and
// renames over path only after a successful sync, so a crash mid-save
// leaves either the old complete file or the new complete file — never
// a torn image. The tuple mover's stable-image swap relies on this.
func (t *Table) Save(path string) error {
	meta, err := json.Marshal(&t.Meta)
	if err != nil {
		return fmt.Errorf("storage: marshal meta: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var hdr [16]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(meta)))
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(meta)
	}
	if err == nil {
		_, err = f.Write(t.data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Open loads a table file written by Save.
func Open(path string) (*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 16 || string(raw[:4]) != string(magic[:4]) {
		return nil, fmt.Errorf("storage: %s is not a vectorwise table file", path)
	}
	if v := binary.BigEndian.Uint32(raw[4:8]); v != formatVersion {
		return nil, fmt.Errorf("storage: %s is table format version %d; this build reads version %d", path, v, formatVersion)
	}
	metaLen := binary.LittleEndian.Uint64(raw[8:16])
	if uint64(len(raw)-16) < metaLen {
		return nil, fmt.Errorf("storage: truncated table file %s", path)
	}
	t := &Table{}
	if err := json.Unmarshal(raw[16:16+metaLen], &t.Meta); err != nil {
		return nil, fmt.Errorf("storage: corrupt meta in %s: %w", path, err)
	}
	t.data = raw[16+metaLen:]
	if err := t.checkExtents(); err != nil {
		return nil, fmt.Errorf("storage: corrupt meta in %s: %w", path, err)
	}
	return t, nil
}

// checkExtents verifies what a scan trusts of the metadata: every group
// has one chunk per column, and one null chunk per column if any, each
// inside the data section, and the groups' row counts are non-negative
// and sum to the table's.
func (t *Table) checkExtents() error {
	var rows int64
	for g := range t.Meta.Groups {
		grp := &t.Meta.Groups[g]
		if len(grp.Cols) != len(t.Meta.Cols) || grp.NullCols != nil && len(grp.NullCols) != len(t.Meta.Cols) {
			return fmt.Errorf("group %d has %d chunks and %d null chunks for %d columns", g, len(grp.Cols), len(grp.NullCols), len(t.Meta.Cols))
		}
		for _, chunks := range [][]ChunkMeta{grp.Cols, grp.NullCols} {
			for _, m := range chunks {
				if m.Offset < 0 || m.Len < 0 || m.Len > int64(len(t.data))-m.Offset {
					return fmt.Errorf("group %d has chunk [%d, +%d) outside the %d-byte data section", g, m.Offset, m.Len, len(t.data))
				}
			}
		}
		if grp.Rows < 0 || int64(grp.Rows) > t.Meta.Rows-rows {
			return fmt.Errorf("group %d has %d rows, past the table's %d", g, grp.Rows, t.Meta.Rows)
		}
		rows += int64(grp.Rows)
	}
	if rows != t.Meta.Rows {
		return fmt.Errorf("groups hold %d rows, the table %d", rows, t.Meta.Rows)
	}
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// A digest summarises a result set so two executions of one statement can
// be compared without keeping the rows: the row count plus, per column, an
// order-insensitive sum. Integer, date and string columns sum a 64-bit mix
// of each value (exact match required); float columns sum the values and
// their magnitudes (compared with a relative tolerance, because engines
// add partial sums in different orders).
type digest struct {
	Rows int64    `json:"rows"`
	Cols []colSum `json:"cols"`
}

type colSum struct {
	// Class is "i" (BIGINT, DATE as day number, BOOLEAN), "f" or "s".
	Class string  `json:"class"`
	Hash  uint64  `json:"hash,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Abs   float64 `json:"abs,omitempty"`
}

const floatTol = 1e-9

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// strHash is FNV-1a finished with mix64: golden.json stores these sums, so
// the hash must not change between processes.
func strHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return mix64(h)
}

func classOf(k vtypes.Kind) string {
	switch k.StorageClass() {
	case vtypes.ClassF64:
		return "f"
	case vtypes.ClassStr:
		return "s"
	default:
		return "i"
	}
}

func newDigest(schema *vtypes.Schema) *digest {
	d := &digest{Cols: make([]colSum, schema.Len())}
	for i := range d.Cols {
		d.Cols[i].Class = classOf(schema.Col(i).Kind)
	}
	return d
}

// addBatch folds the live rows of an engine batch into the digest. NULLs
// hash as a fixed constant.
func (d *digest) addBatch(b *vector.Batch) {
	d.Rows += int64(b.N)
	for c, v := range b.Vecs {
		cs := &d.Cols[c]
		for i := 0; i < b.N; i++ {
			ix := b.LiveIndex(i)
			if v.Nulls != nil && v.Nulls[ix] {
				cs.Hash += nullHash
				continue
			}
			switch v.Kind.StorageClass() {
			case vtypes.ClassI64:
				cs.Hash += mix64(uint64(v.I64[ix]))
			case vtypes.ClassF64:
				cs.Sum += v.F64[ix]
				cs.Abs += math.Abs(v.F64[ix])
			case vtypes.ClassStr:
				cs.Hash += strHash(v.Str[ix])
			case vtypes.ClassBool:
				cs.Hash += boolHash(v.B[ix])
			}
		}
	}
}

const nullHash = 0x9e3779b97f4a7c15

func boolHash(b bool) uint64 {
	if b {
		return mix64(1)
	}
	return mix64(0)
}

// addRows folds boxed rows (the tuple-at-a-time oracle's output).
func (d *digest) addRows(rows []vtypes.Row) {
	d.Rows += int64(len(rows))
	for _, row := range rows {
		for c, v := range row {
			cs := &d.Cols[c]
			switch {
			case v.Null:
				cs.Hash += nullHash
			case cs.Class == "f":
				cs.Sum += v.AsFloat()
				cs.Abs += math.Abs(v.AsFloat())
			case cs.Class == "s":
				cs.Hash += strHash(v.Str)
			case v.Kind == vtypes.KindBool:
				cs.Hash += boolHash(v.B)
			default:
				cs.Hash += mix64(uint64(v.I64))
			}
		}
	}
}

// addWireRows folds rows decoded from the server's JSON (numbers as
// json.Number, DATE as "YYYY-MM-DD"). The digest's column classes must be
// set beforehand: the wire form alone does not tell 5.0 from 5.
func (d *digest) addWireRows(rows [][]any) error {
	d.Rows += int64(len(rows))
	for _, row := range rows {
		if len(row) != len(d.Cols) {
			return fmt.Errorf("wire row has %d columns, want %d", len(row), len(d.Cols))
		}
		for c, x := range row {
			cs := &d.Cols[c]
			switch v := x.(type) {
			case nil:
				cs.Hash += nullHash
			case bool:
				cs.Hash += boolHash(v)
			case json.Number:
				if cs.Class == "f" {
					f, err := v.Float64()
					if err != nil {
						return err
					}
					cs.Sum += f
					cs.Abs += math.Abs(f)
					continue
				}
				i, err := v.Int64()
				if err != nil {
					return fmt.Errorf("column %d: %w", c, err)
				}
				cs.Hash += mix64(uint64(i))
			case string:
				if cs.Class == "s" {
					cs.Hash += strHash(v)
					continue
				}
				days, err := vtypes.ParseDate(v)
				if err != nil {
					return fmt.Errorf("column %d: %w", c, err)
				}
				cs.Hash += mix64(uint64(days))
			default:
				return fmt.Errorf("column %d: unexpected wire value %T", c, x)
			}
		}
	}
	return nil
}

// diff reports the first difference between a wanted and an obtained
// digest, naming the statement kind, or nil when they agree.
func (want *digest) diff(kind string, got *digest) error {
	if want.Rows != got.Rows {
		return fmt.Errorf("%s: %d rows, want %d", kind, got.Rows, want.Rows)
	}
	if len(want.Cols) != len(got.Cols) {
		return fmt.Errorf("%s: %d columns, want %d", kind, len(got.Cols), len(want.Cols))
	}
	for c := range want.Cols {
		w, g := want.Cols[c], got.Cols[c]
		if w.Class != g.Class {
			return fmt.Errorf("%s: column %d has class %q, want %q", kind, c, g.Class, w.Class)
		}
		if w.Class != "f" {
			if w.Hash != g.Hash {
				return fmt.Errorf("%s: column %d checksum %#x, want %#x", kind, c, g.Hash, w.Hash)
			}
			continue
		}
		if !closeTo(w.Sum, g.Sum, math.Max(w.Abs, g.Abs)) {
			return fmt.Errorf("%s: column %d sum %.17g, want %.17g", kind, c, g.Sum, w.Sum)
		}
		if !closeTo(w.Abs, g.Abs, w.Abs) {
			return fmt.Errorf("%s: column %d sum of magnitudes %.17g, want %.17g", kind, c, g.Abs, w.Abs)
		}
	}
	return nil
}

// closeTo compares two sums relative to the magnitude that was summed.
func closeTo(a, b, scale float64) bool {
	return math.Abs(a-b) <= floatTol*math.Max(scale, 1)
}

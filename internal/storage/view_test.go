package storage

import (
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vectorwise/internal/compress"
	"vectorwise/internal/vtypes"
)

// viewTable builds (k BIGINT, d DOUBLE, p DOUBLE, s VARCHAR, n DOUBLE
// NULL) in groups of 100 rows: k and d random, so their chunks are plain;
// p of three values, so its chunks are PDICT; s of odd lengths, so the
// chunk after it would start unaligned unless padded; n with a NULL
// every sixteenth row, so it has an indicator chunk too. The rows are
// the same whatever the name.
func viewTable(t testing.TB, name string, rows int) *Table {
	t.Helper()
	b := NewBuilder(name, vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "d", Kind: vtypes.KindF64},
		vtypes.Column{Name: "p", Kind: vtypes.KindF64},
		vtypes.Column{Name: "s", Kind: vtypes.KindStr},
		vtypes.Column{Name: "n", Kind: vtypes.KindF64, Nullable: true},
	), 100)
	rng := rand.New(rand.NewSource(1))
	for i := range rows {
		d := rng.NormFloat64() * 1e6
		switch i {
		case 7:
			d = math.NaN()
		case 8:
			d = math.Copysign(0, -1)
		}
		n := vtypes.F64Value(rng.Float64())
		if i%16 == 0 {
			n = vtypes.NullValue(vtypes.KindF64)
		}
		row := vtypes.Row{
			vtypes.I64Value(int64(rng.Uint64())),
			vtypes.F64Value(d),
			vtypes.F64Value(float64(i % 3)),
			vtypes.StrValue(strings.Repeat("s", 2*(i%5)+1) + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + "."),
			n,
		}
		if err := b.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// inImage reports whether p addresses a byte of t's data section.
func inImage(t *Table, p uintptr) bool {
	base := reflect.ValueOf(t.data).Pointer()
	return p >= base && p < base+uintptr(len(t.data))
}

// TestPlainChunksViewImage: for tables whose meta JSON length takes every
// residue mod 8, built and saved and reopened, every chunk starts
// 8-aligned; a plain BIGINT or DOUBLE chunk decodes to a view of its
// payload in the image, cap == len, and every BIGINT and DOUBLE chunk to
// the values compress decodes. DecodedFetcher, and an image copied to an
// unaligned address, decode to values of their own.
func TestPlainChunksViewImage(t *testing.T) {
	residues := map[int]bool{}
	for k := range 8 {
		built := viewTable(t, "v"+strings.Repeat("x", k), 250)
		meta, err := json.Marshal(&built.Meta)
		if err != nil {
			t.Fatal(err)
		}
		residues[len(meta)%8] = true
		path := filepath.Join(t.TempDir(), "v.vwt")
		if err := built.Save(path); err != nil {
			t.Fatal(err)
		}
		opened, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		shifted := &Table{Meta: built.Meta, data: make([]byte, len(built.data)+1)[1:]}
		copy(shifted.data, built.data)
		for _, tc := range []struct {
			label string
			tbl   *Table
			view  bool
		}{{"built", built, true}, {"opened", opened, true}, {"unaligned", shifted, false}} {
			checkViews(t, tc.label+" "+built.Meta.Name, tc.tbl, tc.view)
		}
	}
	if len(residues) != 8 {
		t.Fatalf("meta JSON lengths took %d residues mod 8, want all 8", len(residues))
	}
}

func checkViews(t *testing.T, label string, tbl *Table, view bool) {
	t.Helper()
	plain := map[compress.Codec]int{}
	for g, grp := range tbl.Meta.Groups {
		for c, cm := range grp.Cols {
			if cm.Offset%8 != 0 || grp.NullCols != nil && grp.NullCols[c].Offset%8 != 0 {
				t.Fatalf("%s: group %d column %d starts at %d (null chunk %d), not 8-aligned", label, g, c, cm.Offset, grp.NullCols[c].Offset)
			}
			class := tbl.Meta.Cols[c].Kind.StorageClass()
			if class != vtypes.ClassI64 && class != vtypes.ClassF64 {
				continue
			}
			raw := tbl.RawChunk(g, c)
			v, err := tbl.DecodeChunk(g, c)
			if err != nil {
				t.Fatal(err)
			}
			d, err := DecodedFetcher{}.FetchColumn(tbl, g, c)
			if err != nil {
				t.Fatal(err)
			}
			var got, copied reflect.Value
			switch class {
			case vtypes.ClassI64:
				want, err := compress.DecompressI64(nil, raw)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range want {
					if v.I64[i] != w || d.I64[i] != w {
						t.Fatalf("%s: group %d column %d row %d reads %d and %d, want %d", label, g, c, i, v.I64[i], d.I64[i], w)
					}
				}
				got, copied = reflect.ValueOf(v.I64), reflect.ValueOf(d.I64)
			case vtypes.ClassF64:
				want, err := compress.DecompressF64(nil, raw)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range want {
					if a, b := math.Float64bits(v.F64At(i)), math.Float64bits(d.F64[i]); a != math.Float64bits(w) || b != math.Float64bits(w) {
						t.Fatalf("%s: group %d column %d row %d reads %v and %v, want %v", label, g, c, i, v.F64At(i), d.F64[i], w)
					}
				}
				got, copied = reflect.ValueOf(v.F64), reflect.ValueOf(d.F64)
			}
			if inImage(tbl, copied.Pointer()) {
				t.Fatalf("%s: group %d column %d: DecodedFetcher's values are in the image", label, g, c)
			}
			if cm.Codec == compress.CodecDictF64 && (v.Codes == nil || v.F64 != nil) {
				t.Fatalf("%s: group %d column %d: a PDICT chunk decoded to %d values and %d codes", label, g, c, len(v.F64), len(v.Codes))
			}
			if cm.Codec != compress.CodecPlainI64 && cm.Codec != compress.CodecPlainF64 {
				if got.Len() > 0 && inImage(tbl, got.Pointer()) {
					t.Fatalf("%s: group %d column %d (%v) decoded into the image", label, g, c, cm.Codec)
				}
				continue
			}
			plain[cm.Codec]++
			payload := reflect.ValueOf(raw).Pointer() + 8
			if view && (got.Pointer() != payload || got.Cap() != got.Len()) {
				t.Fatalf("%s: group %d column %d (%v): values at %#x cap %d len %d, want a view at %#x, cap == len", label, g, c, cm.Codec, got.Pointer(), got.Cap(), got.Len(), payload)
			}
			if !view && inImage(tbl, got.Pointer()) {
				t.Fatalf("%s: group %d column %d (%v): unaligned payload viewed in place", label, g, c, cm.Codec)
			}
		}
	}
	if plain[compress.CodecPlainI64] != 3 || plain[compress.CodecPlainF64] != 6 {
		t.Fatalf("%s: %d plain BIGINT and %d plain DOUBLE chunks, want 3 and 6", label, plain[compress.CodecPlainI64], plain[compress.CodecPlainF64])
	}
}

// BenchmarkDecodeChunkPlainF64 decodes one 64 K-row plain DOUBLE chunk
// through DirectFetcher, as a cold scan does: a view of the image, so
// B/op is the vector header's alone (CI fails it at 1 KiB or more).
func BenchmarkDecodeChunkPlainF64(b *testing.B) {
	bld := NewBuilder("f", vtypes.NewSchema(vtypes.Column{Name: "d", Kind: vtypes.KindF64}), 0)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, DefaultGroupRows)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	if _, err := bld.AppendColumns([]any{vals}, nil); err != nil {
		b.Fatal(err)
	}
	tbl, err := bld.Finish()
	if err != nil {
		b.Fatal(err)
	}
	if c := tbl.Meta.Groups[0].Cols[0].Codec; tbl.Groups() != 1 || c != compress.CodecPlainF64 {
		b.Fatalf("%d groups, coded %v", tbl.Groups(), c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (DirectFetcher{}).FetchColumn(tbl, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

package pdt

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"vectorwise/internal/vtypes"
)

// record frames a logged PDT by hand: its stable row count, its entry
// count, then each entry's bytes as given.
func record(stable uint64, ents ...[]byte) []byte {
	out := binary.AppendUvarint(nil, stable)
	out = binary.AppendUvarint(out, uint64(len(ents)))
	for _, e := range ents {
		out = append(out, e...)
	}
	return out
}

// entry is an entry's SID and type followed by rest.
func entry(sid uint64, typ EntryType, rest ...byte) []byte {
	return append(append(binary.AppendUvarint(nil, sid), byte(typ)), rest...)
}

// TestDecodeRefusesEntriesNoPDTHolds: a logged PDT whose counts its bytes
// cannot hold, or whose entries Insert, Delete and Modify never produce,
// is refused; the same entries in a valid order decode. Over testSchema,
// a Mod of column 0 to 1 is the bytes 0 0 1 0 0 0 0 0 0 0.
func TestDecodeRefusesEntriesNoPDTHolds(t *testing.T) {
	modID := []byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 0}
	row := append([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0}, 0, 1, 'x') // (1, "x")
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"a Mod count of 2^61", record(10, entry(3, Mod, binary.AppendUvarint(nil, 1<<61)...))},
		{"an entry count of 2^40", binary.AppendUvarint([]byte{10}, 1<<40)},
		{"SIDs out of order", record(10, entry(7, Del), entry(2, Del))},
		{"a Del beyond the stable rows", record(10, entry(50, Del))},
		{"a Mod at the stable row count", record(10, entry(10, Mod, append([]byte{1}, modID...)...))},
		{"an Ins beyond the stable rows", record(10, entry(11, Ins, row...))},
		{"an Ins after the Del at its SID", record(10, entry(3, Del), entry(3, Ins, row...))},
		{"two Dels at one SID", record(10, entry(3, Del), entry(3, Del))},
		{"a Mod of no column", record(10, entry(3, Mod, 0))},
		{"a Mod of one column twice", record(10, entry(3, Mod, append(append([]byte{2}, modID...), modID...)...))},
	} {
		if p, err := Decode(testSchema(), c.data); err == nil {
			t.Errorf("%s: decoded %d entries, %d visible rows", c.name, p.Len(), p.VisibleRows())
		}
	}
	ok := record(10, entry(3, Ins, row...), entry(3, Mod, append([]byte{1}, modID...)...), entry(7, Del), entry(10, Ins, row...))
	if p, err := Decode(testSchema(), ok); err != nil || p.VisibleRows() != 11 {
		t.Fatalf("a valid record: %v", err)
	}
}

// fuzzSchema holds a column of every kind, NOT NULL and NULL.
func fuzzSchema() *vtypes.Schema {
	var cols []vtypes.Column
	for _, k := range []vtypes.Kind{vtypes.KindI64, vtypes.KindF64, vtypes.KindStr, vtypes.KindBool, vtypes.KindDate} {
		cols = append(cols, vtypes.Column{Name: k.String(), Kind: k}, vtypes.Column{Name: k.String() + "_n", Kind: k, Nullable: true})
	}
	return vtypes.NewSchema(cols...)
}

// fuzzValue draws a value for column c of fuzzSchema.
func fuzzValue(rng *rand.Rand, schema *vtypes.Schema, c int) vtypes.Value {
	col := schema.Col(c)
	if col.Nullable && rng.Intn(3) == 0 {
		return vtypes.NullValue(col.Kind)
	}
	switch col.Kind {
	case vtypes.KindF64:
		return vtypes.F64Value([]float64{math.NaN(), math.Copysign(0, -1), 2.5}[rng.Intn(3)])
	case vtypes.KindStr:
		return vtypes.StrValue([]string{"", "a", "héllo"}[rng.Intn(3)])
	case vtypes.KindBool:
		return vtypes.BoolValue(rng.Intn(2) == 0)
	case vtypes.KindDate:
		return vtypes.DateValue(rng.Int63n(20000))
	}
	return vtypes.I64Value(rng.Int63() - rng.Int63())
}

// sameEntries compares entry sequences, a DOUBLE by its bits.
func sameEntries(a, b []Entry) bool {
	same := func(x, y vtypes.Value) bool {
		return x == y || x.Kind == y.Kind && x.Null == y.Null && math.Float64bits(x.F64) == math.Float64bits(y.F64) &&
			x.I64 == y.I64 && x.Str == y.Str && x.B == y.B
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.SID != y.SID || x.Type != y.Type || len(x.Row) != len(y.Row) || len(x.Mods) != len(y.Mods) {
			return false
		}
		for c := range x.Row {
			if !same(x.Row[c], y.Row[c]) {
				return false
			}
		}
		for m := range x.Mods {
			if x.Mods[m].Col != y.Mods[m].Col || !same(x.Mods[m].Val, y.Mods[m].Val) {
				return false
			}
		}
	}
	return true
}

// FuzzPDTDecode: a logged PDT over a schema of every kind decodes to an
// error or to a PDT whose entries survive Encode then Decode unchanged.
// Decode never panics, and allocates at most a bound proportional to its
// input: 1 KiB a byte, beside 64 KiB for the runtime.
func FuzzPDTDecode(f *testing.F) {
	schema := fuzzSchema()
	rng := rand.New(rand.NewSource(7))
	for _, stable := range []int64{0, 3, 40} {
		p := New(schema, stable)
		for range 30 {
			n := p.VisibleRows()
			switch op := rng.Intn(3); {
			case op == 0 || n == 0:
				row := make(vtypes.Row, schema.Len())
				for c := range row {
					row[c] = fuzzValue(rng, schema, c)
				}
				if err := p.Insert(rng.Int63n(n+1), row); err != nil {
					f.Fatal(err)
				}
			case op == 1:
				if err := p.Delete(rng.Int63n(n)); err != nil {
					f.Fatal(err)
				}
			default:
				c := rng.Intn(schema.Len())
				if err := p.Modify(rng.Int63n(n), c, fuzzValue(rng, schema, c)); err != nil {
					f.Fatal(err)
				}
			}
		}
		f.Add(Encode(p))
	}
	f.Add(record(10, entry(7, Del), entry(2, Del)))
	f.Add(record(10, entry(50, Del)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := Decode(schema, data)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10+1<<10*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grown)
		}
		if err != nil {
			return
		}
		q, err := Decode(schema, Encode(p))
		if err != nil || q.StableRows() != p.StableRows() || !sameEntries(q.Entries(), p.Entries()) {
			t.Fatalf("entries do not survive Encode then Decode (%v)", err)
		}
	})
}

package pdt

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"vectorwise/internal/vtypes"
)

// Serialization of PDTs for the write-ahead log. The schema is not
// embedded: the WAL record names the table and the catalog supplies the
// schema at replay time, exactly like the product logs PDTs by table.

// Encode serializes the PDT's deltas.
func Encode(p *PDT) []byte {
	out := binary.AppendUvarint(nil, uint64(p.StableRows()))
	ents := p.Entries()
	out = binary.AppendUvarint(out, uint64(len(ents)))
	for _, e := range ents {
		out = binary.AppendUvarint(out, uint64(e.SID))
		out = append(out, byte(e.Type))
		switch e.Type {
		case Ins:
			for _, v := range e.Row {
				out = appendValue(out, v)
			}
		case Mod:
			out = binary.AppendUvarint(out, uint64(len(e.Mods)))
			for _, mc := range e.Mods {
				out = binary.AppendUvarint(out, uint64(mc.Col))
				out = appendValue(out, mc.Val)
			}
		}
	}
	return out
}

// Decode reconstructs a PDT over the given schema. It bounds every count
// by the bytes left before allocating, and refuses entries Insert, Delete
// and Modify never produce: an Ins outside SIDs [0, StableRows], a Del or
// Mod outside [0, StableRows), a SID below the one before it, an entry
// after the Del or Mod at its SID (which ends that SID's entries), and a
// Mod of no column or of one column twice.
func Decode(schema *vtypes.Schema, data []byte) (*PDT, error) {
	stable, k := binary.Uvarint(data)
	if k <= 0 || stable > math.MaxInt64 {
		return nil, fmt.Errorf("pdt: bad header")
	}
	data = data[k:]
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k)/2 { // an entry is at least a SID and a type
		return nil, fmt.Errorf("pdt: entry count %d exceeds the record", n)
	}
	data = data[k:]
	p := New(schema, int64(stable))
	var err error
	var last Entry
	for i := uint64(0); i < n; i++ {
		sid, k := binary.Uvarint(data)
		if k <= 0 || len(data) == k {
			return nil, fmt.Errorf("pdt: truncated entry %d", i)
		}
		typ := EntryType(data[k])
		data = data[k+1:]
		e := Entry{SID: int64(sid), Type: typ}
		switch {
		case typ == Ins && sid > stable, (typ == Del || typ == Mod) && sid >= stable:
			return nil, fmt.Errorf("pdt: entry %d (type %d at SID %d) beyond %d stable rows", i, typ, sid, stable)
		case i > 0 && (e.SID < last.SID || e.SID == last.SID && last.Type != Ins):
			return nil, fmt.Errorf("pdt: entry %d (type %d at SID %d) out of order after type %d at SID %d", i, typ, sid, last.Type, last.SID)
		}
		switch typ {
		case Ins:
			e.Row = make(vtypes.Row, schema.Len())
			for c := range e.Row {
				e.Row[c], data, err = readValue(data, schema.Col(c).Kind)
				if err != nil {
					return nil, err
				}
			}
		case Del:
		case Mod:
			nm, k := binary.Uvarint(data)
			if k <= 0 || nm == 0 || nm > uint64(min(schema.Len(), len(data)/2)) {
				return nil, fmt.Errorf("pdt: entry %d (Mod at SID %d) of %d columns", i, sid, nm)
			}
			data = data[k:]
			e.Mods = make([]ColChange, nm)
			for j := range e.Mods {
				col, k := binary.Uvarint(data)
				if k <= 0 {
					return nil, fmt.Errorf("pdt: truncated mod col")
				}
				data = data[k:]
				if col >= uint64(schema.Len()) || slices.ContainsFunc(e.Mods[:j], func(m ColChange) bool { return m.Col == int(col) }) {
					return nil, fmt.Errorf("pdt: entry %d (Mod at SID %d) names column %d out of schema or twice", i, sid, col)
				}
				e.Mods[j].Col = int(col)
				e.Mods[j].Val, data, err = readValue(data, schema.Col(int(col)).Kind)
				if err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("pdt: unknown entry type %d", typ)
		}
		p.appendOrdered(e)
		last = e
	}
	return p, nil
}

// appendOrdered appends an entry known to be in sequence order.
func (p *PDT) appendOrdered(e Entry) {
	if len(p.chunks) == 0 || len(p.chunks[len(p.chunks)-1].entries) >= maxChunk {
		p.chunks = append(p.chunks, &chunk{owner: p.token()})
		p.before = append(p.before, int64(p.ins-p.del))
	}
	c := p.mut(len(p.chunks) - 1)
	c.entries = append(c.entries, e)
	switch e.Type {
	case Ins:
		c.ins++
		p.ins++
	case Del:
		c.del++
		p.del++
	}
}

// appendValue encodes a value: null flag byte, then the payload.
func appendValue(out []byte, v vtypes.Value) []byte {
	if v.Null {
		return append(out, 1)
	}
	out = append(out, 0)
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v.I64))
		out = append(out, b[:]...)
	case vtypes.ClassF64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F64))
		out = append(out, b[:]...)
	case vtypes.ClassStr:
		out = binary.AppendUvarint(out, uint64(len(v.Str)))
		out = append(out, v.Str...)
	case vtypes.ClassBool:
		if v.B {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// readValue decodes a value of the given kind, returning the rest.
func readValue(data []byte, kind vtypes.Kind) (vtypes.Value, []byte, error) {
	if len(data) == 0 {
		return vtypes.Value{}, nil, fmt.Errorf("pdt: truncated value")
	}
	if data[0] == 1 {
		return vtypes.NullValue(kind), data[1:], nil
	}
	data = data[1:]
	switch kind.StorageClass() {
	case vtypes.ClassI64:
		if len(data) < 8 {
			return vtypes.Value{}, nil, fmt.Errorf("pdt: truncated i64")
		}
		return vtypes.Value{Kind: kind, I64: int64(binary.LittleEndian.Uint64(data))}, data[8:], nil
	case vtypes.ClassF64:
		if len(data) < 8 {
			return vtypes.Value{}, nil, fmt.Errorf("pdt: truncated f64")
		}
		return vtypes.Value{Kind: kind, F64: math.Float64frombits(binary.LittleEndian.Uint64(data))}, data[8:], nil
	case vtypes.ClassStr:
		l, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < l {
			return vtypes.Value{}, nil, fmt.Errorf("pdt: truncated string")
		}
		s := string(data[k : k+int(l)])
		return vtypes.Value{Kind: kind, Str: s}, data[k+int(l):], nil
	case vtypes.ClassBool:
		if len(data) < 1 {
			return vtypes.Value{}, nil, fmt.Errorf("pdt: truncated bool")
		}
		return vtypes.Value{Kind: kind, B: data[0] == 1}, data[1:], nil
	}
	return vtypes.Value{}, nil, fmt.Errorf("pdt: invalid kind %v", kind)
}

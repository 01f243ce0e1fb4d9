package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// grouperInput is one grouper's input stream: rows of (o BIGINT in order,
// k BIGINT NULL, g DOUBLE NULL, s VARCHAR, u VARCHAR, ns VARCHAR NULL). s
// and u carry dictionary codes whose dictionaries are replaced by
// reordered ones halfway (a dictionary switch mid-stream); ns carries codes
// and a null indicator.
type grouperInput struct {
	rows  []vtypes.Row
	dicts [2][][]string // per half, per coded column (s, u, ns): its dictionary
}

var grouperSchema = vtypes.NewSchema(
	vtypes.Column{Name: "o", Kind: vtypes.KindI64}, vtypes.Column{Name: "k", Kind: vtypes.KindI64, Nullable: true},
	vtypes.Column{Name: "g", Kind: vtypes.KindF64, Nullable: true}, vtypes.Column{Name: "s", Kind: vtypes.KindStr},
	vtypes.Column{Name: "u", Kind: vtypes.KindStr}, vtypes.Column{Name: "ns", Kind: vtypes.KindStr, Nullable: true})

// newGrouperInput draws rows rows whose s and u take ds and du values, so
// that a GROUP BY s, u meets a dictionary product of ds·du.
func newGrouperInput(rows, ds, du int) grouperInput {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	gs := []float64{math.NaN(), negNaN, math.Copysign(0, -1), 0, 1.5, -2}
	var in grouperInput
	for half := range 2 {
		for _, size := range []int{ds, du, 3} {
			dict := make([]string, size)
			for i := range dict {
				v := i
				if half == 1 {
					v = size - 1 - i // same values, other codes
				}
				dict[i] = fmt.Sprintf("v%03d", v)
			}
			in.dicts[half] = append(in.dicts[half], dict)
		}
	}
	for r := range rows {
		k, g, ns := vtypes.I64Value(int64(r*7919%41)), vtypes.F64Value(gs[r*31%len(gs)]), vtypes.StrValue(fmt.Sprintf("v%03d", r%3))
		if r%9 == 4 {
			k, g = vtypes.NullValue(vtypes.KindI64), vtypes.NullValue(vtypes.KindF64)
		}
		if r%5 == 1 {
			ns = vtypes.NullValue(vtypes.KindStr)
		}
		in.rows = append(in.rows, vtypes.Row{vtypes.I64Value(int64(r / 5)), k, g,
			vtypes.StrValue(fmt.Sprintf("v%03d", r*13%ds)), vtypes.StrValue(fmt.Sprintf("v%03d", r*7%du)), ns})
	}
	return in
}

// batches cuts the rows into batches of size rows, ten percent of them
// live through a selection vector when sparse. A NULL holds the safe value.
func (in grouperInput) batches(size int, sparse bool) []*vector.Batch {
	var out []*vector.Batch
	for lo := 0; lo < len(in.rows); lo += size {
		n := min(size, len(in.rows)-lo)
		b := vector.NewBatch(grouperSchema, n)
		half := 0
		if lo >= len(in.rows)/2 {
			half = 1
		}
		for c, v := range b.Vecs {
			for i := range n {
				v.Set(i, in.rows[lo+i][c])
			}
			if c >= 3 { // coded the way a scan of a dictionary chunk delivers
				dict := in.dicts[half][c-3]
				v.Codes, v.Dict = make([]uint8, n), dict
				for i := range n {
					for code, s := range dict {
						if s == v.Str[i] {
							v.Codes[i] = uint8(code)
						}
					}
				}
			}
		}
		b.SetDense(n)
		if sparse {
			sel, live := b.MutableSel(n), 0
			for i := range n {
				if (lo+i)%10 == 3 {
					sel[live] = int32(i)
					live++
				}
			}
			b.SetSel(sel, live)
		}
		out = append(out, b)
	}
	return out
}

// identity renders a key under vtypes.Value.Compare's identity: NULL apart
// from every value, -0 as 0, every NaN alike.
func identity(key vtypes.Row) string {
	s := ""
	for _, v := range key {
		switch {
		case v.Null:
			s += "|NULL"
		case v.Kind == vtypes.KindF64 && v.F64 == 0:
			s += "|0"
		case v.Kind == vtypes.KindF64:
			s += "|" + strconv.FormatFloat(v.F64, 'g', -1, 64)
		default:
			s += "|" + strconv.Quote(v.String())
		}
	}
	return s
}

// TestGrouperContract runs each grouper against a map keyed by
// Value.Compare identity, batch by batch: the grouper must partition the
// live rows as the reference does, number groups densely in order of first
// appearance — a batch's new groups take the ids after the last batch's
// count, in the order the key table numbers them (a row whose first walk
// stopped on a colliding tag comes after the batch's others) — return the
// reference's group count, and have stored group i's key as its first
// row's before group returns. Inputs: vector
// sizes 1, 3 and 1024, dense and 10 % live; NULL, NaN, -NaN and ±0 keys; a
// dictionary switch mid-stream and dictionary products of 1 024 (the code
// cache) and 1 025 (the hash path); an ordered key whose runs straddle
// batch boundaries; and a reset a third of the way in, then more input.
func TestGrouperContract(t *testing.T) {
	o, k, g := col(0, vtypes.KindI64), col(1, vtypes.KindI64), col(2, vtypes.KindF64)
	s, u, ns := col(3, vtypes.KindStr), col(4, vtypes.KindStr), col(5, vtypes.KindStr)
	for _, tc := range []struct {
		name   string
		keys   []Expr
		ord    int
		ds, du int
		typ    string
		cache  string // whether the code cache serves some batch: "used", "unused" or either
	}{
		{"one group", nil, -1, 4, 4, "*core.oneGrouper", ""},
		{"k,g", []Expr{k, g}, -1, 4, 4, "*core.hashGrouper", ""},
		{"o,g ordered", []Expr{o, g}, 0, 4, 4, "*core.hashGrouper", ""},
		{"s,u product 1024", []Expr{s, u}, -1, 32, 32, "*core.codeGrouper", "used"},
		{"s,u product 1025", []Expr{s, u}, -1, 25, 41, "*core.codeGrouper", "unused"},
		{"s,ns nullable", []Expr{s, ns}, -1, 4, 4, "*core.codeGrouper", ""},
		{"o runs", []Expr{o}, 0, 4, 4, "*core.runGrouper", ""},
	} {
		implicit := 0 // the groups before any input: one without GROUP BY
		if len(tc.keys) == 0 {
			implicit = 1
		}
		in := newGrouperInput(3000, tc.ds, tc.du)
		for _, size := range []int{1, 3, 1024} {
			for _, sparse := range []bool{false, true} {
				name := fmt.Sprintf("%s/vec%d/sparse=%v", tc.name, size, sparse)
				gr := newGrouper(tc.keys, tc.ord)
				if got := fmt.Sprintf("%T", gr); got != tc.typ {
					t.Fatalf("%s: newGrouper picked %s, want %s", name, got, tc.typ)
				}
				if n := gr.table().n; n != implicit {
					t.Fatalf("%s: %d groups before any input", name, n)
				}
				ref, pos := map[string]uint32{}, 0 // key identity -> the grouper's id
				batches := in.batches(size, sparse)
				for bi, b := range batches {
					if bi == len(batches)/3 {
						gr.reset()
						clear(ref)
					}
					if b.N == 0 { // the aggregate never passes an empty batch
						pos += b.Capacity()
						continue
					}
					before := len(ref)
					ids, n, err := gr.group(b)
					if err != nil {
						t.Fatalf("%s: batch %d: %v", name, bi, err)
					}
					for kk := range b.N {
						i := b.LiveIndex(kk)
						row := in.rows[pos+i]
						key := make(vtypes.Row, len(tc.keys))
						for c, e := range tc.keys {
							key[c] = row[e.(columnRef).Column()]
						}
						id, ok := ref[identity(key)]
						if !ok {
							id = ids[i]
							if id < uint32(before) || id >= uint32(n) || slices.Contains(slices.Collect(maps.Values(ref)), id) {
								t.Fatalf("%s: batch %d row %d: new group %d, not one of the ids %d..%d still free", name, bi, i, id, before, n-1)
							}
							ref[identity(key)] = id
							for c, kc := range gr.table().keys {
								v := vector.New(kc.kind, 1)
								kc.gather(v, nil, []int32{int32(id)}, 1)
								got := v.Get(0)
								if got.Null != key[c].Null || got.String() != key[c].String() || math.Float64bits(got.F64) != math.Float64bits(key[c].F64) {
									t.Fatalf("%s: batch %d: group %d stores key %v, its first row has %v", name, bi, id, got, key[c])
								}
							}
						}
						if ids[i] != id {
							t.Fatalf("%s: batch %d row %d: group %d, reference %d", name, bi, i, ids[i], id)
						}
					}
					if want := max(len(ref), implicit); n != want || gr.table().n != want {
						t.Fatalf("%s: batch %d: %d groups (table %d), reference %d", name, bi, n, gr.table().n, want)
					}
					pos += b.Capacity()
				}
				if cg, ok := gr.(*codeGrouper); ok && tc.cache != "" && (cg.cache != nil) != (tc.cache == "used") {
					t.Fatalf("%s: code cache used = %v", name, cg.cache != nil)
				}
			}
		}
	}
}

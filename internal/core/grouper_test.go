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
// k BIGINT NULL, g DOUBLE NULL, s VARCHAR, u VARCHAR, ns VARCHAR NULL,
// i BIGINT, dt DATE, x BIGINT, j BIGINT). s, u and ns are coded, with no
// strings, and their dictionaries are replaced by reordered ones halfway
// (a dictionary switch mid-stream); ns also carries a null indicator. i, dt, x and
// j are the integer code cache's inputs (see intKeys).
type grouperInput struct {
	rows  []vtypes.Row
	dicts [2][][]string // per half, per coded column (s, u, ns): its dictionary
}

var grouperSchema = vtypes.NewSchema(
	vtypes.Column{Name: "o", Kind: vtypes.KindI64}, vtypes.Column{Name: "k", Kind: vtypes.KindI64, Nullable: true},
	vtypes.Column{Name: "g", Kind: vtypes.KindF64, Nullable: true}, vtypes.Column{Name: "s", Kind: vtypes.KindStr},
	vtypes.Column{Name: "u", Kind: vtypes.KindStr}, vtypes.Column{Name: "ns", Kind: vtypes.KindStr, Nullable: true},
	vtypes.Column{Name: "i", Kind: vtypes.KindI64}, vtypes.Column{Name: "dt", Kind: vtypes.KindDate},
	vtypes.Column{Name: "x", Kind: vtypes.KindI64}, vtypes.Column{Name: "j", Kind: vtypes.KindI64})

// intKeys returns row r's integer keys i, dt, x and j. Cut into vectors of
// 1024 rows, i's live keys span, batch by batch: 1023 values from −600
// (the window's width DefaultSize−1); 64 values inside that window (kept);
// 1024 values from 100 (re-based, width DefaultSize); 1025 values from 50
// (DefaultSize+1: the hash path); a few negative values (re-based).
// Vectors of 1 and 3 rows re-base at almost every batch, and meet keys
// one past their window's end. dt is a DATE around the epoch, negative
// days included. x mixes small negative keys with MinInt64 and MaxInt64,
// in one batch or a few rows apart, and windows at either extreme. j
// spans 32 values, so that a VARCHAR key of ds entries beside it makes a
// product of 32·ds.
func intKeys(r int) (i, dt, x, j int64) {
	switch b, o := r/1024, int64(r%1024); {
	case b == 0:
		i = -600 + o*37%1023
	case b == 1:
		i = -600 + o%64
	case b == 2:
		i = 100 + o*37%1024
	case b == 3 && o == 1:
		i = 50 + 1024
	case b == 3:
		i = 50 + o*37%1024
	default:
		i = -3 - o%7
	}
	switch m := r % 512; {
	case m == 7:
		x = math.MinInt64
	case m == 8:
		x = math.MaxInt64
	case m >= 100 && m < 110:
		x = math.MaxInt64 - int64(m%3)
	case m >= 200 && m < 210:
		x = math.MinInt64 + int64(m%3)
	default:
		x = int64(r%5) - 2
	}
	return i, int64(r/7%50) - 25, x, int64(r % 32)
}

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
		// ns's NULL rows hold the safe value, which its chunks code too.
		in.dicts[half][2] = append(in.dicts[half][2], "")
	}
	for r := range rows {
		k, g, ns := vtypes.I64Value(int64(r*7919%41)), vtypes.F64Value(gs[r*31%len(gs)]), vtypes.StrValue(fmt.Sprintf("v%03d", r%3))
		if r%9 == 4 {
			k, g = vtypes.NullValue(vtypes.KindI64), vtypes.NullValue(vtypes.KindF64)
		}
		if r%5 == 1 {
			ns = vtypes.NullValue(vtypes.KindStr)
		}
		i, dt, x, j := intKeys(r)
		in.rows = append(in.rows, vtypes.Row{vtypes.I64Value(int64(r / 5)), k, g,
			vtypes.StrValue(fmt.Sprintf("v%03d", r*13%ds)), vtypes.StrValue(fmt.Sprintf("v%03d", r*7%du)), ns,
			vtypes.I64Value(i), vtypes.DateValue(dt), vtypes.I64Value(x), vtypes.I64Value(j)})
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
			if v.Kind == vtypes.KindStr { // coded the way a scan of a dictionary chunk delivers
				dict := in.dicts[half][c-3]
				codes := make([]uint8, n)
				for i := range n {
					codes[i] = uint8(slices.Index(dict, v.Str[i]))
				}
				v.Str, v.Codes, v.Shared = nil, codes, &vector.Shared{Dict: dict}
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
// row's before group returns. Inputs: vector sizes 1, 3 and 1024, dense
// and 10 % live; NULL, NaN, -NaN and ±0 keys; a dictionary switch
// mid-stream and dictionary products of 1 024 (the code cache) and 1 025
// (the hash path); BIGINT and DATE keys whose windows re-base, shrink back
// inside and span DefaultSize−1, DefaultSize and DefaultSize+1 keys
// (intKeys), MinInt64 and MaxInt64 in one batch, a VARCHAR × BIGINT
// product at and over the bound, and a nullable BIGINT; an ordered key
// whose runs straddle batch boundaries; and a reset a third of the way
// in, then more input. paths pins, at dense vectors of 1024, which batches
// the code cache served (C) and which took the hash path (H).
func TestGrouperContract(t *testing.T) {
	o, k, g := col(0, vtypes.KindI64), col(1, vtypes.KindI64), col(2, vtypes.KindF64)
	s, u, ns := col(3, vtypes.KindStr), col(4, vtypes.KindStr), col(5, vtypes.KindStr)
	i, dt, x, j := col(6, vtypes.KindI64), col(7, vtypes.KindDate), col(8, vtypes.KindI64), col(9, vtypes.KindI64)
	for _, tc := range []struct {
		name   string
		keys   []Expr
		ord    int
		ds, du int
		typ    string
		cache  string // whether the code cache serves some batch: "used", "unused" or either
		paths  string // at dense vectors of 1024, per batch: C the code cache, H the hash path
	}{
		{"one group", nil, -1, 4, 4, "*core.oneGrouper", "", ""},
		{"k,g", []Expr{k, g}, -1, 4, 4, "*core.hashGrouper", "", ""},
		{"i,g", []Expr{i, g}, -1, 4, 4, "*core.hashGrouper", "", ""},
		{"o,g ordered", []Expr{o, g}, 0, 4, 4, "*core.hashGrouper", "", ""},
		{"o,k ordered", []Expr{o, k}, 0, 4, 4, "*core.hashGrouper", "", ""},
		{"s,u product 1024", []Expr{s, u}, -1, 32, 32, "*core.codeGrouper", "used", "CCCCC"},
		{"s,u product 1025", []Expr{s, u}, -1, 25, 41, "*core.codeGrouper", "unused", "HHHHH"},
		{"s,ns nullable", []Expr{s, ns}, -1, 4, 4, "*core.codeGrouper", "", "HHHHH"},
		{"i windows", []Expr{i}, -1, 4, 4, "*core.codeGrouper", "used", "CCCHC"},
		{"dt", []Expr{dt}, -1, 4, 4, "*core.codeGrouper", "used", "CCCCC"},
		{"x extremes", []Expr{x}, -1, 4, 4, "*core.codeGrouper", "", "HHHHH"},
		{"k nullable", []Expr{k}, -1, 4, 4, "*core.codeGrouper", "", "HHHHH"},
		// At vectors of one row, row 21 re-bases dt's window and takes the
		// hash path on its NULL ns; row 22, in the same window, must not
		// read what the cache held for row 20's.
		{"dt,ns nullable", []Expr{dt, ns}, -1, 4, 4, "*core.codeGrouper", "", "HHHHH"},
		{"s,j product 1024", []Expr{s, j}, -1, 32, 4, "*core.codeGrouper", "used", "CCCCC"},
		{"j,s product 1056", []Expr{j, s}, -1, 33, 4, "*core.codeGrouper", "", "HHHHH"},
		{"o runs", []Expr{o}, 0, 4, 4, "*core.runGrouper", "", ""},
	} {
		implicit := 0 // the groups before any input: one without GROUP BY
		if len(tc.keys) == 0 {
			implicit = 1
		}
		in, served := newGrouperInput(5120, tc.ds, tc.du), 0 // batches the code cache served in every run
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
				batches, paths := in.batches(size, sparse), ""
				cg, _ := gr.(*codeGrouper)
				for bi, b := range batches {
					if bi == len(batches)/3 {
						gr.reset()
						clear(ref)
					}
					if b.N == 0 { // the aggregate never passes an empty batch
						pos += b.Capacity()
						continue
					}
					before, servedBefore := len(ref), 0
					if cg != nil {
						servedBefore = cg.served
					}
					ids, n, err := gr.group(b)
					if err != nil {
						t.Fatalf("%s: batch %d: %v", name, bi, err)
					}
					if cg != nil && cg.served > servedBefore {
						paths += "C"
					} else {
						paths += "H"
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
				if cg == nil {
					continue
				}
				if served += cg.served; tc.cache != "" && (cg.served > 0) != (tc.cache == "used") {
					t.Fatalf("%s: code cache served %d batches", name, cg.served)
				}
				if size == vector.DefaultSize && !sparse && tc.paths != "" && paths != tc.paths {
					t.Fatalf("%s: batches took paths %s, want %s", name, paths, tc.paths)
				}
			}
		}
		if tc.typ == "*core.codeGrouper" && tc.cache != "unused" && served == 0 {
			t.Fatalf("%s: the code cache served no batch in any run", tc.name)
		}
	}
}

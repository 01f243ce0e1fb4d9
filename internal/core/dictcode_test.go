package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/compress"
	"vectorwise/internal/expr"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// Columns of dictTable.
const (
	dFlag = iota
	dStatus
	dCity
	dColor
	dNullable
	dX
)

const dictGroupRows = 256

// dictTable builds four row groups of 256 rows over (flag, status, city,
// color VARCHAR; nk VARCHAR NULL; x BIGINT). flag holds the same three
// values in groups 0, 1 and 3, in a different first-occurrence order each,
// so each group's dictionary codes them differently; in group 2 every flag
// is distinct and the chunk is plain-coded. city has 40 values and color
// 30, so a GROUP BY of both has 1 200 combinations. nk cycles NULL, the
// empty string, "p" and "q".
func dictTable(t testing.TB) *storage.Table {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "flag", Kind: vtypes.KindStr}, vtypes.Column{Name: "status", Kind: vtypes.KindStr},
		vtypes.Column{Name: "city", Kind: vtypes.KindStr}, vtypes.Column{Name: "color", Kind: vtypes.KindStr},
		vtypes.Column{Name: "nk", Kind: vtypes.KindStr, Nullable: true}, vtypes.Column{Name: "x", Kind: vtypes.KindI64})
	b := storage.NewBuilder("d", schema, dictGroupRows)
	orders := [][]string{{"A", "N", "R"}, {"R", "A", "N"}, nil, {"N", "R", "A"}}
	for g, order := range orders {
		for i := range dictGroupRows {
			flag := fmt.Sprintf("f%03d", i)
			if order != nil {
				flag = order[i%3]
			}
			nk := vtypes.StrValue([]string{"", "", "p", "q"}[i%4])
			if i%4 == 0 {
				nk = vtypes.NullValue(vtypes.KindStr)
			}
			if err := b.AppendRow(vtypes.Row{vtypes.StrValue(flag), vtypes.StrValue([]string{"F", "O"}[(i/3+g)%2]),
				vtypes.StrValue(fmt.Sprintf("c%02d", i%40)), vtypes.StrValue(fmt.Sprintf("k%02d", (i/40+i)%30)),
				nk, vtypes.I64Value(int64(g*1000 + i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestDictTableShape pins the fixture's premises: which chunks carry
// codes, and that flag's dictionaries order the same values differently.
func TestDictTableShape(t *testing.T) {
	tbl := dictTable(t)
	for g := range tbl.Groups() {
		for c, want := range []bool{g != 2, true, true, true, true} {
			v, err := tbl.DecodeChunk(g, c)
			if err != nil {
				t.Fatal(err)
			}
			if (v.Codes != nil) != want {
				t.Fatalf("group %d column %d: codes %v, want %v (%v)", g, c, v.Codes != nil, want, tbl.Meta.Groups[g].Cols[c].Codec)
			}
		}
		if c := tbl.Meta.Groups[g].Cols[dFlag].Codec; (c == compress.CodecDict) != (g != 2) {
			t.Fatalf("group %d: flag coded %v", g, c)
		}
	}
	d0, _ := tbl.DecodeChunk(0, dFlag)
	d1, _ := tbl.DecodeChunk(1, dFlag)
	if slices.Equal(d0.Dict(), d1.Dict()) || !slices.Equal(slices.Sorted(slices.Values(d0.Dict())), slices.Sorted(slices.Values(d1.Dict()))) {
		t.Fatalf("dictionaries %v and %v must order the same values differently", d0.Dict(), d1.Dict())
	}
}

// dictDeltas modifies group keys in the middle of group 1's first batch,
// to a new value and to an existing one, deletes a row and inserts one, so
// that the merge scan copies that batch into its own vectors.
func dictDeltas(t *testing.T, tbl *storage.Table) *pdt.PDT {
	t.Helper()
	p := pdt.New(tbl.Schema(), tbl.Rows())
	for _, err := range []error{
		p.Modify(300, dFlag, vtypes.StrValue("Z")),
		p.Modify(301, dFlag, vtypes.StrValue("A")),
		p.Modify(302, dStatus, vtypes.StrValue("O")),
		p.Modify(303, dCity, vtypes.StrValue("c00")),
		p.Delete(310),
		p.Insert(320, vtypes.Row{vtypes.StrValue("N"), vtypes.StrValue("F"), vtypes.StrValue("c07"),
			vtypes.StrValue("k07"), vtypes.StrValue("p"), vtypes.I64Value(-7)}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestHashAggDictCodesAgainstStrings runs GROUP BY over dictTable with the
// scan's dictionary codes and with strings only, against a boxed oracle,
// at vector sizes 1, 3 and 1024, dense and behind an IN filter the scan
// evaluates on codes. The code path must serve the key sets whose every
// chunk can carry codes, despite group 1's reordered dictionary, group 2's
// plain chunk and a live PDT (its touched batch arrives without codes),
// and must stay unused when the dictionary product exceeds
// vector.DefaultSize or a key carries a null indicator.
func TestHashAggDictCodesAgainstStrings(t *testing.T) {
	tbl := dictTable(t)
	layers := []*pdt.PDT{dictDeltas(t, tbl)}
	cols := []int{dFlag, dStatus, dCity, dColor, dNullable, dX}
	kinds := []vtypes.Kind{vtypes.KindStr, vtypes.KindStr, vtypes.KindStr, vtypes.KindStr, vtypes.KindStr, vtypes.KindI64}
	cities := make([]vtypes.Value, 0, 12)
	for c := 0; c < 40; c += 3 {
		cities = append(cities, vtypes.StrValue(fmt.Sprintf("c%02d", c)))
	}
	for _, tc := range []struct {
		name   string
		keys   []int
		layers []*pdt.PDT
		codes  bool // the code cache serves some batch
	}{
		{"flag,status", []int{dFlag, dStatus}, nil, true},
		{"status,flag with deltas", []int{dStatus, dFlag}, layers, true},
		{"city,status,flag", []int{dCity, dStatus, dFlag}, layers, true},
		{"status", []int{dStatus}, nil, true},
		{"city,color over 1024", []int{dCity, dColor}, nil, false},
		{"nullable", []int{dNullable}, nil, false},
		{"status,nullable", []int{dStatus, dNullable}, layers, false},
	} {
		for _, filtered := range []bool{false, true} {
			for _, vecSize := range []int{1, 3, 1024} {
				name := fmt.Sprintf("%s/filtered=%v/vec%d", tc.name, filtered, vecSize)
				scan := func(fetch storage.ChunkFetcher) *Scan {
					opts := ScanOpts{Fetch: fetch, Layers: tc.layers, VecSize: vecSize}
					if filtered {
						opts.Filter = mustPred(expr.NewInSet(col(dCity, vtypes.KindStr), cities))
					}
					return NewScan(tbl, cols, opts)
				}
				want := dictOracle(t, scan(storage.DecodedFetcher{}), tc.keys)
				for _, fetch := range []storage.ChunkFetcher{nil, storage.DecodedFetcher{}} {
					groupBy := make([]Expr, len(tc.keys))
					names := []string{"n", "sum"}
					for i, k := range tc.keys {
						groupBy[i] = col(k, kinds[k])
						names = slices.Insert(names, i, fmt.Sprint("k", i))
					}
					agg := NewHashAggregate(scan(fetch), groupBy,
						[]AggSpec{{Fn: AggCountStar}, {Fn: AggSum, Arg: col(dX, vtypes.KindI64)}}, names)
					agg.vecSize = vecSize
					if err := agg.Open(); err != nil {
						t.Fatal(err)
					}
					var got []string
					for {
						b, err := agg.Next()
						if err != nil {
							t.Fatal(err)
						}
						if b == nil {
							break
						}
						for i := range b.N {
							got = append(got, fmt.Sprint(b.Row(i)))
						}
					}
					cg, _ := agg.groups.(*codeGrouper)
					if used := cg != nil && cg.cache != nil; used != (tc.codes && fetch == nil) {
						t.Fatalf("%s, fetch %T: code cache used = %v", name, fetch, used)
					}
					agg.Close()
					slices.Sort(got)
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Fatalf("%s, fetch %T: aggregate\n%v\nboxed oracle\n%v", name, fetch, got, want)
					}
				}
			}
		}
	}
}

// dictOracle groups the scan's boxed rows by the key columns and renders
// (keys..., COUNT(*), SUM(x)) rows, sorted.
func dictOracle(t *testing.T, scan *Scan, keys []int) []string {
	t.Helper()
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	type acc struct {
		key    vtypes.Row
		n, sum int64
	}
	byKey := map[string]*acc{}
	for _, r := range rows {
		key := make(vtypes.Row, len(keys))
		for i, k := range keys {
			key[i] = r[k]
		}
		id := fmt.Sprintf("%#v", key) // NULL and "" differ
		a := byKey[id]
		if a == nil {
			a = &acc{key: key}
			byKey[id] = a
		}
		a.n++
		a.sum += r[dX].I64
	}
	var out []string
	for _, a := range byKey {
		out = append(out, fmt.Sprint(append(a.key, vtypes.I64Value(a.n), vtypes.I64Value(a.sum))))
	}
	slices.Sort(out)
	return out
}

package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/catalog"
	"vectorwise/internal/storage"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// likeRows are s(k, x): single characters of one, two and three bytes,
// two-character strings and ASCII controls. Every x is distinct, so the
// chunk is plain and the vectorized engine matches an arena's bytes.
var likeRows = []string{"é", "ab", "a", "aé", "日本", "", "%x", "a_c", "abc", "xéa"}

// likeExpectations: '_' is one character, whatever its UTF-8 length, and
// '%' any run of characters; a '%' in the pattern is a wildcard even
// where the string holds a '%'.
var likeExpectations = []struct {
	pattern string
	keys    string // the k of the matching rows, ascending
}{
	{"_", "0 2"},      // é, a
	{"__", "1 3 4 6"}, // ab, aé, 日本, %x
	{"a_", "1 3"},     // ab, aé
	{"_本", "4"},       // 日本
	{"%_", "0 1 2 3 4 6 7 8 9"},
	{"%_a", "9"},     // xéa
	{"___", "7 8 9"}, // a_c, abc, xéa
	{"%x", "6"},      // %x
	{"a%", "1 2 3 7 8"},
	{"%é%", "0 3 9"},
	{"", "5"},
	{"%", "0 1 2 3 4 5 6 7 8 9"},
	{"a_c", "7 8"},
}

func likeCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	b := storage.NewBuilder("s", vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "x", Kind: vtypes.KindStr}), 0)
	for k, x := range likeRows {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(k)), vtypes.StrValue(x)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tbl.DecodeChunk(0, 1); err != nil || v.Off == nil {
		t.Fatalf("x does not decode to an arena (err %v)", err)
	}
	cat := catalog.New()
	cat.Put(tbl)
	return cat
}

// TestLikeCharacters runs the hand-written LIKE and NOT LIKE expectations
// on the tuple, materialized and vectorized engines, the last on the
// arena and through DecodedFetcher on strings.
func TestLikeCharacters(t *testing.T) {
	cat := likeCatalog(t)
	engines := map[string]tpch.RunOptions{
		"tuple":                 {Engine: tpch.EngineTuple},
		"materialized":          {Engine: tpch.EngineMaterialized},
		"vectorized":            {},
		"vectorized vec=1":      {VecSize: 1},
		"vectorized strings":    {Fetch: storage.DecodedFetcher{}},
		"vectorized parallel=2": {Parallel: 2},
	}
	for _, e := range likeExpectations {
		var not []string
		in := map[string]bool{}
		for _, k := range strings.Fields(e.keys) {
			in[k] = true
		}
		for k := range likeRows {
			if key := fmt.Sprint(k); !in[key] {
				not = append(not, key)
			}
		}
		for negate, want := range map[string]string{"": e.keys, "NOT ": strings.Join(not, " ")} {
			text := fmt.Sprintf("SELECT k FROM s WHERE x %sLIKE '%s' ORDER BY k", negate, e.pattern)
			for name, opts := range engines {
				rows, _, err := tpch.RunQuery(cat, tpch.SQLQuery{Name: "like", SQL: text}, opts)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, text, err)
				}
				if got := strings.Join(render(rows), " "); got != want {
					t.Errorf("%s: %s: k %q, want %q", name, text, got, want)
				}
			}
		}
	}
}

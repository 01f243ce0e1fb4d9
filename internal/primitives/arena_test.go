package primitives

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// toArena lays vals out as an arena: their bytes after a two-byte head,
// as a later batch's view starts past its chunk's first row.
func toArena(vals []string) ([]uint32, []byte) {
	b := []byte("##")
	off := []uint32{2}
	for _, s := range vals {
		b = append(b, s...)
		off = append(off, uint32(len(b)))
	}
	return off, b
}

// TestArenaKernelsMatchStringKernels: every arena kernel selects what its
// []string kernel selects over the same rows, dense and under a
// selection, for empty, multibyte and prefix-sharing values.
func TestArenaKernelsMatchStringKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []string{"", "a", "ab", "abc", "b", "é", "aé", "日本", "special", "xspecialy", "requests", "special requests"}
	vals := make([]string, 200)
	for i := range vals {
		vals[i] = words[rng.Intn(len(words))]
		if rng.Intn(3) == 0 {
			vals[i] += words[rng.Intn(len(words))]
		}
	}
	off, b := toArena(vals)
	var sel []int32
	for i := range vals {
		if i%3 != 1 {
			sel = append(sel, int32(i))
		}
	}
	res, want := make([]int32, len(vals)), make([]int32, len(vals))
	for _, s := range [][]int32{nil, sel} {
		n := len(vals)
		if s != nil {
			n = len(s)
		}
		check := func(name string, got, exp int) {
			t.Helper()
			if !slices.Equal(res[:got], want[:exp]) {
				t.Fatalf("%s (sel %v): arena %v, strings %v", name, s != nil, res[:got], want[:exp])
			}
		}
		for _, c := range []string{"", "a", "ab", "aé", "b", "é", "日本", "zz"} {
			for name, k := range map[string]struct {
				want CmpWant
				str  func([]int32, []string, string, []int32, int) int
			}{
				"=": {WantEq, SelEqVC[string]}, "<>": {WantNe, SelNeVC[string]}, "<": {WantLt, SelLtVC[string]},
				"<=": {WantLe, SelLeVC[string]}, ">": {WantGt, SelGtVC[string]}, ">=": {WantGe, SelGeVC[string]},
			} {
				check(fmt.Sprintf("x %s %q", name, c), SelCmpArena(res, off, b, c, k.want, s, n), k.str(want, vals, c, s, n))
			}
			check(fmt.Sprintf("x BETWEEN %q AND 'b'", c), SelBetweenArena(res, off, b, c, "b", s, n), SelBetweenVC(want, vals, c, "b", s, n))
		}
		set := []string{"", "é", "abab", "special"}
		check("IN", SelInSetArena(res, off, b, set, s, n), SelInSet(want, vals, set, s, n))
		for _, p := range []string{"ab", "a%", "%b", "%special%", "%spec%req%", "_", "a_", "%é", "", "%"} {
			check("LIKE "+p, SelLikeArena(res, off, b, p, true, s, n), SelLike(want, vals, p, s, n))
			check("NOT LIKE "+p, SelLikeArena(res, off, b, p, false, s, n), SelNotLike(want, vals, p, s, n))
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		SelLikeArena(res, off, b, "%special%", true, sel, len(sel))
		SelCmpArena(res, off, b, "ab", WantLe, nil, len(vals))
		SelInSetArena(res, off, b, []string{"a", "b"}, sel, len(sel))
	}); allocs != 0 {
		t.Fatalf("arena kernels allocate %.0f times", allocs)
	}
}

// TestMatchLikeCharacters: '_' is one character, a UTF-8 sequence of one
// to four bytes, in the string matcher and the arena's alike.
func TestMatchLikeCharacters(t *testing.T) {
	for _, c := range []struct {
		s, pat string
		want   bool
	}{
		{"é", "_", true}, {"é", "__", false}, {"aé", "a_", true}, {"日本", "_本", true},
		{"日本", "__", true}, {"日本", "_", false}, {"😀x", "_x", true}, {"é", "%_", true},
		{"xéa", "%_a", true}, {"éa", "%__a", false}, {"ab", "__", true}, {"a", "__", false},
		{"", "_", false}, {"%x", "%x", true}, {"a%b", "a%%b", true}, {"\xff", "_", true},
	} {
		off, b := toArena([]string{c.s})
		res := make([]int32, 1)
		if got := MatchLike(c.s, c.pat); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
		if got := SelLikeArena(res, off, b, c.pat, true, nil, 1) == 1; got != c.want {
			t.Errorf("SelLikeArena(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

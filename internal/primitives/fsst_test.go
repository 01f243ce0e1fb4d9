package primitives

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"vectorwise/internal/compress"
)

// symbols decodes a symbol table of the given symbols (1 to 8 bytes each,
// in code order) from a chunk of no rows.
func symbols(t testing.TB, syms []string) *compress.Symbols {
	t.Helper()
	data := append([]byte{byte(compress.CodecFSST), 0, 0, 0}, binary.LittleEndian.AppendUint32(nil, 0)...)
	data = append(data, byte(len(syms)))
	for _, s := range syms {
		data = append(data, byte(len(s)))
	}
	for _, s := range syms {
		data = append(data, s...)
	}
	_, _, sym, err := compress.DecompressStrArena(data)
	if err != nil {
		t.Fatal(err)
	}
	return sym
}

// fsstArena encodes vals with sym into an FSST arena, after two bytes of
// codes of no row, as a later batch's view starts past its first row.
func fsstArena(sym *compress.Symbols, vals []string) ([]uint32, []byte) {
	codes := []byte{0, 0}
	off := []uint32{2}
	for _, s := range vals {
		codes = sym.Encode(codes, s)
		off = append(off, uint32(len(codes)))
	}
	return off, codes
}

// likeOnCodes checks LikeCodes, LIKE and NOT LIKE, dense and under a
// selection of every other row, against SelLikeArena over the same rows
// and against MatchLike. A pattern whose literal is not valid UTF-8 is
// LikeGeneral and gets no automaton: the codes path decodes its live rows
// (DecodeRows) and runs the arena kernel, which matches characters.
func likeOnCodes(t *testing.T, sym *compress.Symbols, vals []string, pattern string) {
	t.Helper()
	like := NewLikeCodes(pattern)
	if (like == nil) == utf8.ValidString(pattern) {
		t.Fatalf("%q: automaton %v", pattern, like != nil)
	}
	off, codes := fsstArena(sym, vals)
	res := make([]int32, len(vals))
	var odd []int32
	for i := 1; i < len(vals); i += 2 {
		odd = append(odd, int32(i))
	}
	for _, want := range []bool{true, false} {
		for _, sel := range [][]int32{nil, odd} {
			n := len(vals)
			if sel != nil {
				n = len(sel)
			}
			var got []int32
			if like != nil {
				got = res[:like.Sel(res, off, codes, sym, want, sel, n)]
			} else {
				dOff, d := DecodeRows(nil, nil, off, codes, sym, sel, n)
				got = res[:SelLikeArena(res, dOff, d, pattern, want, sel, n)]
			}
			pOff, p := toArena(vals)
			arena := make([]int32, len(vals))
			if exp := arena[:SelLikeArena(arena, pOff, p, pattern, want, sel, n)]; !slices.Equal(got, exp) {
				t.Fatalf("LIKE %q is %v over %q (sel %v): rows %v, the arena kernel %v", pattern, want, vals, sel, got, exp)
			}
			var exp []int32
			for k := range n {
				i := k
				if sel != nil {
					i = int(sel[k])
				}
				if MatchLike(vals[i], pattern) == want {
					exp = append(exp, int32(i))
				}
			}
			if !slices.Equal(got, exp) {
				t.Fatalf("LIKE %q is %v over %q (sel %v): rows %v, want %v", pattern, want, vals, sel, got, exp)
			}
		}
	}
}

// TestLikeOnCodes: the four fast shapes on codes select what MatchLike
// does, where the literal lies inside one symbol, starts inside one and
// ends in the next, spans three, restarts after a partial match
// ('%aab%' over "aaab"), and meets escaped bytes (0xFF among them).
func TestLikeOnCodes(t *testing.T) {
	sym := symbols(t, []string{"spec", "ial ", "requests", "a", "aa", "b", "al r", " "})
	vals := []string{"", "special requests", "special", "xspecial", "specia", "aaab", "aab", "ab",
		"requests special", "\xffspecial\xff", "sp\xffecial", "special req", "ial r", "a", "requests"}
	for _, lit := range []string{"special", "ial req", "al r", "aab", "ab", "a", "requests", "\xff", "special requests", "x", ""} {
		for _, p := range []string{lit, lit + "%", "%" + lit, "%" + lit + "%"} {
			likeOnCodes(t, sym, vals, p)
		}
	}
	if NewLikeCodes("%special%requests%") != nil || NewLikeCodes("sp_cial") != nil || NewLikeCodes("%"+strings.Repeat("x", maxLikeCodes+1)+"%") != nil {
		t.Fatal("a general pattern or an overlong literal got an automaton")
	}
	// One automaton follows the table it is handed: lifted again for a
	// second chunk's.
	like := NewLikeCodes("%special%")
	for _, s := range []*compress.Symbols{sym, symbols(t, []string{"cial", "spe"}), sym} {
		off, codes := fsstArena(s, vals)
		res := make([]int32, len(vals))
		if k := like.Sel(res, off, codes, s, true, nil, len(vals)); k != 6 {
			t.Fatalf("%d rows contain special, want 6: %v", k, res[:k])
		}
	}
}

// FuzzLikeOnCodes: over a symbol table, rows and a literal the fuzzer
// picks, every fast LIKE shape of the literal, as LIKE and NOT LIKE, on
// codes selects what the arena kernel selects on the rows' bytes and what
// MatchLike selects (likeOnCodes). Symbols may repeat,
// overlap and hold 0xFF; rows are encoded with the table as a constant is
// (Symbols.Encode), escaping what no symbol covers.
func FuzzLikeOnCodes(f *testing.F) {
	f.Add([]byte("\x04spec\x04ial \x01a\x02aa"), []byte("special requests aaab"), []byte{7, 9, 4}, []byte("ial r"))
	f.Add([]byte("\x02ab\x01b\x03abb"), []byte("abbabab\xff"), []byte{3, 2, 3}, []byte("bab"))
	f.Add([]byte{}, []byte("\xff\x00\xff"), []byte{1, 0, 2}, []byte{0xff})
	f.Add([]byte("0"), []byte("Ɩ"), []byte("2"), []byte("\x96")) // a literal inside a character
	f.Fuzz(func(t *testing.T, table, in, cuts, lit []byte) {
		var syms []string
		for len(table) > 0 && len(syms) < 255 {
			l := min(1+int(table[0]%8), len(table)-1)
			if l == 0 {
				break
			}
			syms, table = append(syms, string(table[1:1+l])), table[1+l:]
		}
		vals := make([]string, len(cuts))
		for i, c := range cuts {
			k := min(int(c%24), len(in))
			vals[i], in = string(in[:k]), in[k:]
		}
		// The literal without wildcards, so each pattern has its shape.
		s := strings.NewReplacer("%", "", "_", "").Replace(string(lit))
		if len(s) > maxLikeCodes {
			s = s[:maxLikeCodes]
		}
		sym := symbols(t, syms)
		for _, p := range []string{s, s + "%", "%" + s, "%" + s + "%"} {
			likeOnCodes(t, sym, vals, p)
		}
	})
}

// TestDecodeRows: the live rows of an FSST arena decode into a plain arena
// over the same positions, the rows between them empty, and an arena
// kernel over it selects what it selects over the rows themselves.
func TestDecodeRows(t *testing.T) {
	sym := symbols(t, []string{"ab", "c"})
	vals := []string{"abc", "", "zz\xff", "cab", "ab"}
	off, codes := fsstArena(sym, vals)
	var dOff []uint32
	var d []byte
	for _, sel := range [][]int32{nil, {0, 3}, {2}, {}} {
		n := len(vals)
		if sel != nil {
			n = len(sel)
		}
		dOff, d = DecodeRows(dOff, d, off, codes, sym, sel, n)
		live := map[int]bool{}
		for k := range n {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			live[i] = true
		}
		for i := range len(dOff) - 1 {
			want := ""
			if live[i] {
				want = vals[i]
			}
			if got := string(d[dOff[i]:dOff[i+1]]); got != want {
				t.Fatalf("sel %v: row %d decodes to %q, want %q", sel, i, got, want)
			}
		}
		res := make([]int32, len(vals))
		if k := SelCmpArena(res, dOff, d, "cab", WantEq, sel, n); k != 0 && (k != 1 || res[0] != 3) {
			t.Fatalf("sel %v: = 'cab' selects %v", sel, res[:k])
		}
	}
}

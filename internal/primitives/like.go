package primitives

import (
	"strings"
	"unicode/utf8"
)

// LIKE support. The expression compiler classifies patterns into fast
// paths (prefix / suffix / contains / exact) and falls back to a general
// glob matcher for mixed patterns such as TPC-H Q9's '%green%' or
// Q13's '%special%requests%'. '%' matches any run of characters and '_'
// one character: a UTF-8 sequence, or a byte that starts none. The fast
// paths compare bytes, which for a valid UTF-8 literal match only at
// character boundaries.

// LikeShape classifies a LIKE pattern.
type LikeShape uint8

// Pattern shapes, cheapest first.
const (
	// LikeExact has no wildcards: equality.
	LikeExact LikeShape = iota
	// LikePrefix is "abc%".
	LikePrefix
	// LikeSuffix is "%abc".
	LikeSuffix
	// LikeContains is "%abc%".
	LikeContains
	// LikeGeneral is anything else.
	LikeGeneral
)

// ClassifyLike returns the shape of pattern and the literal payload for
// the fast-path shapes (pattern stripped of its wildcards).
func ClassifyLike(pattern string) (LikeShape, string) {
	if strings.ContainsRune(pattern, '_') {
		return LikeGeneral, pattern
	}
	n := strings.Count(pattern, "%")
	switch {
	case n == 0:
		return LikeExact, pattern
	case n == 1 && strings.HasSuffix(pattern, "%"):
		return LikePrefix, pattern[:len(pattern)-1]
	case n == 1 && strings.HasPrefix(pattern, "%"):
		return LikeSuffix, pattern[1:]
	case n == 2 && strings.HasPrefix(pattern, "%") && strings.HasSuffix(pattern, "%") && len(pattern) >= 2:
		inner := pattern[1 : len(pattern)-1]
		if !strings.Contains(inner, "%") {
			return LikeContains, inner
		}
	}
	return LikeGeneral, pattern
}

// MatchLike reports whether s matches the general LIKE pattern.
func MatchLike(s, pattern string) bool { return matchLike(s, pattern) }

// matchLike is MatchLike over a string or an arena row's bytes: an
// iterative two-pointer algorithm with backtracking on the last '%'. Both
// cursors advance a character at a time, so si stays on a boundary.
func matchLike[S ~string | ~[]byte](s S, pattern string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case pi < len(pattern) && pattern[pi] == '_':
			si += charLen(s, si)
			pi++
		case pi < len(pattern) && pattern[pi] == s[si]:
			si++
			pi++
		case star != -1:
			pi = star + 1
			match += charLen(s, match)
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// charLen is the length of the character at s[i]: its UTF-8 sequence, or
// 1 for a byte that starts none.
func charLen[S ~string | ~[]byte](s S, i int) int {
	if s[i] < utf8.RuneSelf {
		return 1
	}
	var buf [utf8.UTFMax]byte
	_, size := utf8.DecodeRune(buf[:copy(buf[:], s[i:])])
	return size
}

// SelLike selects live i where a[i] matches pattern, dispatching to the
// cheapest kernel for the pattern's shape.
func SelLike(res []int32, a []string, pattern string, sel []int32, n int) int {
	return selLike(res, a, pattern, sel, n, true)
}

// SelNotLike selects live i where a[i] does not match pattern.
func SelNotLike(res []int32, a []string, pattern string, sel []int32, n int) int {
	return selLike(res, a, pattern, sel, n, false)
}

// selLike selects live i where a[i] LIKE pattern is want. Each shape's
// matcher is a closure passed straight to selMatch, so it stays on the
// stack: a call allocates nothing.
func selLike(res []int32, a []string, pattern string, sel []int32, n int, want bool) int {
	shape, lit := ClassifyLike(pattern)
	switch shape {
	case LikeExact:
		return selMatch(res, a, sel, n, want, func(s string) bool { return s == lit })
	case LikePrefix:
		return selMatch(res, a, sel, n, want, func(s string) bool { return strings.HasPrefix(s, lit) })
	case LikeSuffix:
		return selMatch(res, a, sel, n, want, func(s string) bool { return strings.HasSuffix(s, lit) })
	case LikeContains:
		return selMatch(res, a, sel, n, want, func(s string) bool { return strings.Contains(s, lit) })
	default:
		return selMatch(res, a, sel, n, want, func(s string) bool { return MatchLike(s, pattern) })
	}
}

// selMatch selects live i where pred(a[i]) is want.
func selMatch(res []int32, a []string, sel []int32, n int, want bool, pred func(string) bool) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			if pred(a[i]) == want {
				res[k] = int32(i)
				k++
			}
		}
		return k
	}
	for _, i := range sel[:n] {
		if pred(a[i]) == want {
			res[k] = i
			k++
		}
	}
	return k
}

// MapLike computes dst[i] = (a[i] LIKE pattern) for live i.
func MapLike(dst []bool, a []string, pattern string, sel []int32, n int) {
	shape, lit := ClassifyLike(pattern)
	pred := likePred(shape, lit, pattern)
	if sel == nil {
		for i := 0; i < n; i++ {
			dst[i] = pred(a[i])
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = pred(a[i])
	}
}

func likePred(shape LikeShape, lit, pattern string) func(string) bool {
	switch shape {
	case LikeExact:
		return func(s string) bool { return s == lit }
	case LikePrefix:
		return func(s string) bool { return strings.HasPrefix(s, lit) }
	case LikeSuffix:
		return func(s string) bool { return strings.HasSuffix(s, lit) }
	case LikeContains:
		return func(s string) bool { return strings.Contains(s, lit) }
	default:
		return func(s string) bool { return MatchLike(s, pattern) }
	}
}

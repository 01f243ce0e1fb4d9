package primitives

import "bytes"

// Arena kernels read a VARCHAR column laid out as one bytes buffer b and
// offsets off, row i being b[off[i]:off[i+1]] (vector.Vector's arena
// form). They compare and match a row's bytes where they lie: a
// string(row) that is only compared is not copied, so no kernel makes a
// string or allocates per row.

// CmpWant is a comparison operator as the outcomes of a three-way
// comparison it accepts: want[c+1] for c = -1, 0 or 1.
type CmpWant [3]bool

// The comparison operators as CmpWants.
var (
	WantEq = CmpWant{false, true, false}
	WantNe = CmpWant{true, false, true}
	WantLt = CmpWant{true, false, false}
	WantLe = CmpWant{true, true, false}
	WantGt = CmpWant{false, false, true}
	WantGe = CmpWant{false, true, true}
)

// compareRow is the three-way comparison of row with c.
func compareRow(row []byte, c string) int {
	switch {
	case string(row) == c:
		return 0
	case string(row) < c:
		return -1
	}
	return 1
}

// SelCmpArena selects live i where comparing row i with c gives an
// outcome want accepts. Branch-free, like SelLtVC.
func SelCmpArena(res []int32, off []uint32, b []byte, c string, want CmpWant, sel []int32, n int) int {
	k := 0
	if sel == nil {
		off = off[:n+1]
		for i := 0; i < n; i++ {
			res[k] = int32(i)
			k += b2i(want[compareRow(b[off[i]:off[i+1]], c)+1])
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += b2i(want[compareRow(b[off[i]:off[i+1]], c)+1])
	}
	return k
}

// SelBetweenArena selects live i where lo <= row i <= hi: two passes of
// SelCmpArena, the second over the first's survivors.
func SelBetweenArena(res []int32, off []uint32, b []byte, lo, hi string, sel []int32, n int) int {
	k := SelCmpArena(res, off, b, lo, WantGe, sel, n)
	return SelCmpArena(res, off, b, hi, WantLe, res[:k], k)
}

// SelInSetArena selects live i where row i equals a member of set.
func SelInSetArena(res []int32, off []uint32, b []byte, set []string, sel []int32, n int) int {
	k := 0
	for j := 0; j < n; j++ {
		i := int32(j)
		if sel != nil {
			i = sel[j]
		}
		row := b[off[i]:off[i+1]]
		for _, s := range set {
			if string(row) == s {
				res[k] = i
				k++
				break
			}
		}
	}
	return k
}

// SelLikeArena selects live i where row i LIKE pattern is want (false:
// NOT LIKE), dispatching on the pattern's shape as SelLike does.
func SelLikeArena(res []int32, off []uint32, b []byte, pattern string, want bool, sel []int32, n int) int {
	shape, lit := ClassifyLike(pattern)
	switch shape {
	case LikeExact:
		return selMatchArena(res, off, b, sel, n, want, func(r []byte) bool { return string(r) == lit })
	case LikePrefix:
		return selMatchArena(res, off, b, sel, n, want, func(r []byte) bool {
			return len(r) >= len(lit) && string(r[:len(lit)]) == lit
		})
	case LikeSuffix:
		return selMatchArena(res, off, b, sel, n, want, func(r []byte) bool {
			return len(r) >= len(lit) && string(r[len(r)-len(lit):]) == lit
		})
	case LikeContains:
		var buf [64]byte // the literal as bytes, on the stack unless it is long
		return selContainsArena(res, off, b, append(buf[:0], lit...), want, sel, n)
	default:
		return selMatchArena(res, off, b, sel, n, want, func(r []byte) bool { return matchLike(r, pattern) })
	}
}

// selContainsArena selects live i where row i contains lit is want: the
// shape of TPC-H's LIKE predicates ('%special%', '%green%'), so its loop
// calls the search directly, not through a closure.
func selContainsArena(res []int32, off []uint32, b, lit []byte, want bool, sel []int32, n int) int {
	k := 0
	if sel == nil {
		off = off[:n+1]
		for i := 0; i < n; i++ {
			if bytes.Contains(b[off[i]:off[i+1]], lit) == want {
				res[k] = int32(i)
				k++
			}
		}
		return k
	}
	for _, i := range sel[:n] {
		if bytes.Contains(b[off[i]:off[i+1]], lit) == want {
			res[k] = i
			k++
		}
	}
	return k
}

// selMatchArena selects live i where pred(row i) is want.
func selMatchArena(res []int32, off []uint32, b []byte, sel []int32, n int, want bool, pred func([]byte) bool) int {
	k := 0
	if sel == nil {
		off = off[:n+1]
		for i := 0; i < n; i++ {
			if pred(b[off[i]:off[i+1]]) == want {
				res[k] = int32(i)
				k++
			}
		}
		return k
	}
	for _, i := range sel[:n] {
		if pred(b[off[i]:off[i+1]]) == want {
			res[k] = i
			k++
		}
	}
	return k
}

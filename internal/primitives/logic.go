package primitives

// Boolean-map kernels: AND/OR/NOT over operand maps computed on the same
// live set. Like the Map*VV comparisons they serve the materialized
// reference engine; the vectorized engine marks OR/NOT through selection
// vectors (expr.NewOr).

// MapAnd computes dst[i] = a[i] && b[i] for live i.
func MapAnd(dst, a, b []bool, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = a[i] && b[i]
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = a[i] && b[i]
	}
}

// MapOr computes dst[i] = a[i] || b[i] for live i.
func MapOr(dst, a, b []bool, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = a[i] || b[i]
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = a[i] || b[i]
	}
}

// MapNot computes dst[i] = !a[i] for live i.
func MapNot(dst, a []bool, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = !a[i]
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = !a[i]
	}
}

// SelInSet selects live i where a[i] is a member of the given small set
// (the SQL IN (...) list). For the short lists that appear in queries a
// linear probe over a slice beats a map.
func SelInSet[T comparable](res []int32, a []T, set []T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			for _, s := range set {
				if a[i] == s {
					res[k] = int32(i)
					k++
					break
				}
			}
		}
		return k
	}
	for _, i := range sel[:n] {
		for _, s := range set {
			if a[i] == s {
				res[k] = i
				k++
				break
			}
		}
	}
	return k
}

// MapInSet computes dst[i] = (a[i] ∈ set) for live i.
func MapInSet[T comparable](dst []bool, a []T, set []T, sel []int32, n int) {
	member := func(v T) bool {
		for _, s := range set {
			if v == s {
				return true
			}
		}
		return false
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			dst[i] = member(a[i])
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = member(a[i])
	}
}

// SelIsNull selects live i whose null indicator is set; SelIsNotNull the
// complement. These operate on the indicator column produced by the
// storage layer (NULLs-as-two-columns, paper §I-B).
func SelIsNull(res []int32, nulls []bool, sel []int32, n int) int {
	return SelTrue(res, nulls, sel, n)
}

// SelIsNotNull selects live i whose null indicator is clear.
func SelIsNotNull(res []int32, nulls []bool, sel []int32, n int) int {
	return SelFalse(res, nulls, sel, n)
}

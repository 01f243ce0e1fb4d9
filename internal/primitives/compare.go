package primitives

// Selection kernels: each scans the live rows (sel or dense 0..n-1),
// appends the indexes passing the predicate to res, and returns the
// number selected. res must have capacity >= n. Output order is
// ascending because input order is, which downstream kernels rely on.
//
// The ordering kernels (Lt/Le/Gt/Ge, VC and VV, and SelBetween*) are
// branch-free, like SelTrue/SelFalse and SelCodeIn: every live index is
// stored and the output cursor advances by the condition's 0/1, so 50 %
// selectivity costs what 0 % does instead of a mispredicted branch a
// row, and res may alias sel (k never passes the read position).
// Equality keeps its branch: constant equality is the point-lookup shape
// (key = ? over a whole row group, selecting almost nothing), where a
// predicted branch is cheaper than storing every index.

// SelEqVC selects live i where a[i] == c.
func SelEqVC[T comparable](res []int32, a []T, c T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] == c {
				res[k] = int32(i)
				k++
			}
		}
		return k
	}
	for _, i := range sel[:n] {
		if a[i] == c {
			res[k] = i
			k++
		}
	}
	return k
}

// SelNeVC selects live i where a[i] != c.
func SelNeVC[T comparable](res []int32, a []T, c T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] != c {
				res[k] = int32(i)
				k++
			}
		}
		return k
	}
	for _, i := range sel[:n] {
		if a[i] != c {
			res[k] = i
			k++
		}
	}
	return k
}

// SelLtVC selects live i where a[i] < c.
func SelLtVC[T Ordered](res []int32, a []T, c T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i, x := range a[:n] {
			res[k] = int32(i)
			k += b2i(x < c)
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += b2i(a[i] < c)
	}
	return k
}

// SelLeVC selects live i where a[i] <= c.
func SelLeVC[T Ordered](res []int32, a []T, c T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i, x := range a[:n] {
			res[k] = int32(i)
			k += b2i(x <= c)
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += b2i(a[i] <= c)
	}
	return k
}

// SelGtVC selects live i where a[i] > c.
func SelGtVC[T Ordered](res []int32, a []T, c T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i, x := range a[:n] {
			res[k] = int32(i)
			k += b2i(x > c)
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += b2i(a[i] > c)
	}
	return k
}

// SelGeVC selects live i where a[i] >= c.
func SelGeVC[T Ordered](res []int32, a []T, c T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i, x := range a[:n] {
			res[k] = int32(i)
			k += b2i(x >= c)
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += b2i(a[i] >= c)
	}
	return k
}

// SelBetweenVC selects live i where lo <= a[i] <= hi, fused to avoid an
// intermediate selection vector for the common BETWEEN pattern. Both
// compares run on every row and are combined without a branch; integers
// take SelBetweenI64VC's single compare instead.
func SelBetweenVC[T Ordered](res []int32, a []T, lo, hi T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i, x := range a[:n] {
			res[k] = int32(i)
			k += b2i(x >= lo) & b2i(x <= hi)
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += b2i(a[i] >= lo) & b2i(a[i] <= hi)
	}
	return k
}

// SelBetweenI64VC is SelBetweenVC for integers (BIGINT, DATE) as one
// unsigned compare: lo <= x <= hi exactly when x-lo, wrapped to uint64,
// is at most hi-lo. An empty range (hi < lo) selects nothing.
func SelBetweenI64VC(res []int32, a []int64, lo, hi int64, sel []int32, n int) int {
	if hi < lo {
		return 0
	}
	w := uint64(hi - lo)
	k := 0
	if sel == nil {
		for i, x := range a[:n] {
			res[k] = int32(i)
			k += b2i(uint64(x-lo) <= w)
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += b2i(uint64(a[i]-lo) <= w)
	}
	return k
}

// SelEqVV selects live i where a[i] == b[i].
func SelEqVV[T comparable](res []int32, a, b []T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] == b[i] {
				res[k] = int32(i)
				k++
			}
		}
		return k
	}
	for _, i := range sel[:n] {
		if a[i] == b[i] {
			res[k] = i
			k++
		}
	}
	return k
}

// SelNeVV selects live i where a[i] != b[i].
func SelNeVV[T comparable](res []int32, a, b []T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				res[k] = int32(i)
				k++
			}
		}
		return k
	}
	for _, i := range sel[:n] {
		if a[i] != b[i] {
			res[k] = i
			k++
		}
	}
	return k
}

// SelLtVV selects live i where a[i] < b[i].
func SelLtVV[T Ordered](res []int32, a, b []T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		b = b[:n]
		for i, x := range a[:n] {
			res[k] = int32(i)
			k += b2i(x < b[i])
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += b2i(a[i] < b[i])
	}
	return k
}

// SelLeVV selects live i where a[i] <= b[i].
func SelLeVV[T Ordered](res []int32, a, b []T, sel []int32, n int) int {
	k := 0
	if sel == nil {
		b = b[:n]
		for i, x := range a[:n] {
			res[k] = int32(i)
			k += b2i(x <= b[i])
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += b2i(a[i] <= b[i])
	}
	return k
}

// SelGtVV selects live i where a[i] > b[i].
func SelGtVV[T Ordered](res []int32, a, b []T, sel []int32, n int) int {
	return SelLtVV(res, b, a, sel, n)
}

// SelGeVV selects live i where a[i] >= b[i].
func SelGeVV[T Ordered](res []int32, a, b []T, sel []int32, n int) int {
	return SelLeVV(res, b, a, sel, n)
}

// SelTrue selects live i where a[i] is true: the kernel that turns a
// boolean vector — a boolean column, a CASE, the marks of an OR — back
// into a selection vector. Like the ordering kernels above it is
// written without a branch on the data: every live index is stored, and
// the output cursor advances only past the ones that qualify. res may
// alias sel (k never passes the read position).
func SelTrue(res []int32, a []bool, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			res[k] = int32(i)
			k += b2i(a[i])
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += b2i(a[i])
	}
	return k
}

// SelFalse selects live i where a[i] is false, branch-free like SelTrue.
func SelFalse(res []int32, a []bool, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			res[k] = int32(i)
			k += 1 - b2i(a[i])
		}
		return k
	}
	for _, i := range sel[:n] {
		res[k] = i
		k += 1 - b2i(a[i])
	}
	return k
}

// b2i is 1 for true, 0 for false; the compiler emits a zero-extending
// move, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Map comparison kernels produce boolean vectors instead of selection
// vectors. The vectorized engine does not use them — it compiles every
// boolean to Sel* kernels — they are the materialized reference engine's
// column-at-a-time comparisons.

// MapEqVV computes dst[i] = (a[i] == b[i]).
func MapEqVV[T comparable](dst []bool, a, b []T, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = a[i] == b[i]
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = a[i] == b[i]
	}
}

// MapNeVV computes dst[i] = (a[i] != b[i]).
func MapNeVV[T comparable](dst []bool, a, b []T, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = a[i] != b[i]
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = a[i] != b[i]
	}
}

// MapLtVV computes dst[i] = (a[i] < b[i]).
func MapLtVV[T Ordered](dst []bool, a, b []T, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = a[i] < b[i]
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = a[i] < b[i]
	}
}

// MapLeVV computes dst[i] = (a[i] <= b[i]).
func MapLeVV[T Ordered](dst []bool, a, b []T, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = a[i] <= b[i]
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = a[i] <= b[i]
	}
}

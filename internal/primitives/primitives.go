// Package primitives contains the vectorized kernels of the X100 engine:
// tight loops over typed slices, each processing a whole vector per call.
//
// Design rules (these are the paper's performance argument, so they are
// enforced across the package):
//
//   - No interface values, closures or per-element function calls inside
//     a kernel loop. Each kernel is monomorphic after instantiation.
//   - Every kernel takes an optional selection vector `sel` (live
//     positions, ascending). A nil sel means positions 0..n-1 are live.
//   - Comparison kernels *produce* selection vectors rather than copying
//     data, so filters are free of data movement.
//   - Range and ordering selections, SelTrue/SelFalse and SelCodeIn are
//     branch-free: they store every live index and advance the output
//     cursor by the condition's 0 or 1, so their cost does not depend on
//     selectivity (compare.go). Equality keeps its branch: constant
//     equality is the point-lookup shape, selecting almost nothing.
//   - Kernels never inspect null indicators: the rewriter's NULL
//     decomposition (paper §I-B) guarantees NULL-free inputs.
//
// The naming follows X100 conventions: Map* kernels compute a value per
// live row, Sel* kernels emit a selection vector, Agg* kernels update
// accumulators addressed by group ids, Reduce* kernels fold a run of rows
// into one value, Hash* kernels build hash vectors.
// Suffixes VV and VC distinguish vector⊕vector from vector⊕constant.
package primitives

// Number constrains the arithmetic kernel element types. Dates share the
// int64 instantiation.
type Number interface {
	~int64 | ~float64
}

// Ordered constrains comparison kernels; strings compare lexically.
type Ordered interface {
	~int64 | ~float64 | ~string
}

// MapAddVV computes dst[i] = a[i] + b[i] for each live i.
func MapAddVV[T Number](dst, a, b []T, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = a[i] + b[i]
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = a[i] + b[i]
	}
}

// MapSubVV computes dst[i] = a[i] - b[i] for each live i.
func MapSubVV[T Number](dst, a, b []T, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = a[i] - b[i]
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = a[i] - b[i]
	}
}

// MapMulVV computes dst[i] = a[i] * b[i] for each live i.
func MapMulVV[T Number](dst, a, b []T, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = a[i] * b[i]
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = a[i] * b[i]
	}
}

// MapDivVV computes dst[i] = a[i] / b[i] for each live i. Division by
// zero yields 0 and nothing above the kernel guards it: no NULL
// indicator is set and no error raised, so `x / 0` is 0 in SQL, in all
// three engines. Making it an error is ROADMAP item 18; the kernel
// stays total either way.
func MapDivVV[T Number](dst, a, b []T, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			if b[i] == 0 {
				dst[i] = 0
				continue
			}
			dst[i] = a[i] / b[i]
		}
		return
	}
	for _, i := range sel[:n] {
		if b[i] == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = a[i] / b[i]
	}
}

// MapConst broadcasts a constant over the live rows.
func MapConst[T any](dst []T, c T, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			dst[i] = c
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = c
	}
}

// MapCopy copies the live rows of src into dst at the same positions.
func MapCopy[T any](dst, src []T, sel []int32, n int) {
	if sel == nil {
		copy(dst[:n], src[:n])
		return
	}
	for _, i := range sel[:n] {
		dst[i] = src[i]
	}
}

// MapI64ToF64 widens integers to doubles for each live i.
func MapI64ToF64(dst []float64, a []int64, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = float64(a[i])
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = float64(a[i])
	}
}

// MapF64ToI64 truncates doubles to integers for each live i.
func MapF64ToI64(dst []int64, a []float64, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = int64(a[i])
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = int64(a[i])
	}
}

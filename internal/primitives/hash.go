package primitives

import "math"

// Hash kernels build one 64-bit hash per live row, column by column:
// Hash* initializes from the first key column, Rehash* folds further
// columns in. The mixer is the splitmix64 finalizer — cheap, good
// avalanche, and fully deterministic so join/aggregate results are
// reproducible across runs (important for the experiment harness).

const (
	hashMul1 = 0xbf58476d1ce4e5b9
	hashMul2 = 0x94d049bb133111eb
	hashSeed = 0x9e3779b97f4a7c15
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= hashMul1
	x ^= x >> 27
	x *= hashMul2
	x ^= x >> 31
	return x
}

// strHash hashes a string with FNV-1a then finalizes; inlined manually
// to stay allocation-free.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// HashI64 writes dst[i] = hash(a[i]) for live i.
func HashI64(dst []uint64, a []int64, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = mix64(uint64(a[i]) + hashSeed)
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = mix64(uint64(a[i]) + hashSeed)
	}
}

// HashF64 writes dst[i] = hash(bits(a[i])) for live i. -0.0 normalizes
// to +0.0 so SQL equality and hash equality agree.
func HashF64(dst []uint64, a []float64, sel []int32, n int) {
	h := func(f float64) uint64 {
		if f == 0 {
			f = 0 // collapse -0.0
		}
		return mix64(math.Float64bits(f) + hashSeed)
	}
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = h(a[i])
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = h(a[i])
	}
}

// HashStr writes dst[i] = hash(a[i]) for live i.
func HashStr(dst []uint64, a []string, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = strHash(a[i])
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = strHash(a[i])
	}
}

// HashBool writes dst[i] = hash(a[i]) for live i.
func HashBool(dst []uint64, a []bool, sel []int32, n int) {
	t := mix64(1 + hashSeed)
	f := mix64(2 + hashSeed)
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			if a[i] {
				dst[i] = t
			} else {
				dst[i] = f
			}
		}
		return
	}
	for _, i := range sel[:n] {
		if a[i] {
			dst[i] = t
		} else {
			dst[i] = f
		}
	}
}

// RehashI64 folds column a into existing hashes: dst[i] = mix(dst[i] ^ hash(a[i])).
func RehashI64(dst []uint64, a []int64, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = mix64(dst[i] ^ mix64(uint64(a[i])+hashSeed))
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = mix64(dst[i] ^ mix64(uint64(a[i])+hashSeed))
	}
}

// RehashF64 folds a float column into existing hashes.
func RehashF64(dst []uint64, a []float64, sel []int32, n int) {
	h := func(f float64) uint64 {
		if f == 0 {
			f = 0
		}
		return mix64(math.Float64bits(f) + hashSeed)
	}
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = mix64(dst[i] ^ h(a[i]))
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = mix64(dst[i] ^ h(a[i]))
	}
}

// RehashStr folds a string column into existing hashes.
func RehashStr(dst []uint64, a []string, sel []int32, n int) {
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			dst[i] = mix64(dst[i] ^ strHash(a[i]))
		}
		return
	}
	for _, i := range sel[:n] {
		dst[i] = mix64(dst[i] ^ strHash(a[i]))
	}
}

// RehashBool folds a bool column into existing hashes.
func RehashBool(dst []uint64, a []bool, sel []int32, n int) {
	t := mix64(1 + hashSeed)
	f := mix64(2 + hashSeed)
	if sel == nil {
		_ = dst[n-1]
		for i := 0; i < n; i++ {
			if a[i] {
				dst[i] = mix64(dst[i] ^ t)
			} else {
				dst[i] = mix64(dst[i] ^ f)
			}
		}
		return
	}
	for _, i := range sel[:n] {
		if a[i] {
			dst[i] = mix64(dst[i] ^ t)
		} else {
			dst[i] = mix64(dst[i] ^ f)
		}
	}
}

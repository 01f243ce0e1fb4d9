package primitives

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func i64s(vs ...int64) []int64     { return vs }
func f64s(vs ...float64) []float64 { return vs }

func TestMapAddVV(t *testing.T) {
	dst := make([]int64, 4)
	MapAddVV(dst, i64s(1, 2, 3, 4), i64s(10, 20, 30, 40), nil, 4)
	want := []int64{11, 22, 33, 44}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dense add wrong: %v", dst)
		}
	}
	// Selected: only positions 1 and 3 are touched.
	dst2 := make([]int64, 4)
	MapAddVV(dst2, i64s(1, 2, 3, 4), i64s(10, 20, 30, 40), []int32{1, 3}, 2)
	if dst2[0] != 0 || dst2[1] != 22 || dst2[2] != 0 || dst2[3] != 44 {
		t.Fatalf("selected add wrong: %v", dst2)
	}
}

func TestMapMulSubVV(t *testing.T) {
	dst := make([]int64, 2)
	MapMulVV(dst, i64s(3, 4), i64s(5, 6), nil, 2)
	if dst[0] != 15 || dst[1] != 24 {
		t.Fatal("MapMulVV wrong")
	}
	MapSubVV(dst, i64s(3, 4), i64s(5, 6), nil, 2)
	if dst[0] != -2 {
		t.Fatal("MapSubVV wrong")
	}
}

func TestDivByZeroIsTotal(t *testing.T) {
	dst := make([]int64, 2)
	MapDivVV(dst, i64s(10, 10), i64s(0, 2), nil, 2)
	if dst[0] != 0 || dst[1] != 5 {
		t.Fatalf("div by zero must yield 0, got %v", dst)
	}
	// Selected variant too.
	dst2 := make([]int64, 2)
	MapDivVV(dst2, i64s(10, 10), i64s(0, 2), []int32{0, 1}, 2)
	if dst2[0] != 0 || dst2[1] != 5 {
		t.Fatal("selected div by zero wrong")
	}
}

func TestMapConstAndCopy(t *testing.T) {
	dst := make([]string, 3)
	MapConst(dst, "x", nil, 3)
	if dst[2] != "x" {
		t.Fatal("MapConst wrong")
	}
	src := []string{"a", "b", "c"}
	dst2 := make([]string, 3)
	MapCopy(dst2, src, []int32{2}, 1)
	if dst2[2] != "c" || dst2[0] != "" {
		t.Fatal("MapCopy sel wrong")
	}
}

func TestCasts(t *testing.T) {
	f := make([]float64, 2)
	MapI64ToF64(f, i64s(1, 2), nil, 2)
	if f[1] != 2.0 {
		t.Fatal("MapI64ToF64 wrong")
	}
	i := make([]int64, 2)
	MapF64ToI64(i, f64s(1.9, -1.9), nil, 2)
	if i[0] != 1 || i[1] != -1 {
		t.Fatal("MapF64ToI64 must truncate toward zero")
	}
	// Selected variants.
	f2 := make([]float64, 2)
	MapI64ToF64(f2, i64s(5, 7), []int32{1}, 1)
	if f2[0] != 0 || f2[1] != 7 {
		t.Fatal("selected cast wrong")
	}
	i2 := make([]int64, 2)
	MapF64ToI64(i2, f64s(5.5, 7.7), []int32{0}, 1)
	if i2[0] != 5 || i2[1] != 0 {
		t.Fatal("selected cast wrong")
	}
}

func TestSelVCKernels(t *testing.T) {
	a := i64s(5, 1, 7, 3, 7)
	res := make([]int32, 5)

	if n := SelEqVC(res, a, 7, nil, 5); n != 2 || res[0] != 2 || res[1] != 4 {
		t.Fatalf("SelEqVC: n=%d res=%v", n, res[:n])
	}
	if n := SelNeVC(res, a, 7, nil, 5); n != 3 {
		t.Fatalf("SelNeVC: n=%d", n)
	}
	if n := SelLtVC(res, a, 5, nil, 5); n != 2 || res[0] != 1 || res[1] != 3 {
		t.Fatalf("SelLtVC: n=%d res=%v", n, res[:n])
	}
	if n := SelLeVC(res, a, 5, nil, 5); n != 3 {
		t.Fatalf("SelLeVC: n=%d", n)
	}
	if n := SelGtVC(res, a, 5, nil, 5); n != 2 {
		t.Fatalf("SelGtVC: n=%d", n)
	}
	if n := SelGeVC(res, a, 5, nil, 5); n != 3 {
		t.Fatalf("SelGeVC: n=%d", n)
	}
	if n := SelBetweenVC(res, a, 3, 6, nil, 5); n != 2 || res[0] != 0 || res[1] != 3 {
		t.Fatalf("SelBetweenVC: n=%d res=%v", n, res[:n])
	}

	// Chaining through an input selection vector.
	sel := []int32{0, 2, 4} // values 5,7,7
	if n := SelEqVC(res, a, 7, sel, 3); n != 2 || res[0] != 2 || res[1] != 4 {
		t.Fatalf("chained SelEqVC: n=%d res=%v", n, res[:n])
	}
	if n := SelLtVC(res, a, 6, sel, 3); n != 1 || res[0] != 0 {
		t.Fatalf("chained SelLtVC: n=%d", n)
	}
	if n := SelNeVC(res, a, 5, sel, 3); n != 2 {
		t.Fatalf("chained SelNeVC: n=%d", n)
	}
	if n := SelLeVC(res, a, 5, sel, 3); n != 1 {
		t.Fatalf("chained SelLeVC: n=%d", n)
	}
	if n := SelGtVC(res, a, 5, sel, 3); n != 2 {
		t.Fatalf("chained SelGtVC: n=%d", n)
	}
	if n := SelGeVC(res, a, 7, sel, 3); n != 2 {
		t.Fatalf("chained SelGeVC: n=%d", n)
	}
	if n := SelBetweenVC(res, a, 6, 8, sel, 3); n != 2 {
		t.Fatalf("chained SelBetweenVC: n=%d", n)
	}
}

func TestSelVCStrings(t *testing.T) {
	a := []string{"apple", "pear", "fig"}
	res := make([]int32, 3)
	if n := SelLtVC(res, a, "mango", nil, 3); n != 2 || res[0] != 0 || res[1] != 2 {
		t.Fatalf("string SelLtVC: %v", res[:n])
	}
}

func TestSelVVKernels(t *testing.T) {
	a := i64s(1, 5, 3)
	b := i64s(2, 5, 1)
	res := make([]int32, 3)
	if n := SelEqVV(res, a, b, nil, 3); n != 1 || res[0] != 1 {
		t.Fatal("SelEqVV wrong")
	}
	if n := SelNeVV(res, a, b, nil, 3); n != 2 {
		t.Fatal("SelNeVV wrong")
	}
	if n := SelLtVV(res, a, b, nil, 3); n != 1 || res[0] != 0 {
		t.Fatal("SelLtVV wrong")
	}
	if n := SelLeVV(res, a, b, nil, 3); n != 2 {
		t.Fatal("SelLeVV wrong")
	}
	if n := SelGtVV(res, a, b, nil, 3); n != 1 || res[0] != 2 {
		t.Fatal("SelGtVV wrong")
	}
	if n := SelGeVV(res, a, b, nil, 3); n != 2 {
		t.Fatal("SelGeVV wrong")
	}
	sel := []int32{0, 2}
	if n := SelEqVV(res, a, b, sel, 2); n != 0 {
		t.Fatal("chained SelEqVV wrong")
	}
	if n := SelNeVV(res, a, b, sel, 2); n != 2 {
		t.Fatal("chained SelNeVV wrong")
	}
	if n := SelLtVV(res, a, b, sel, 2); n != 1 {
		t.Fatal("chained SelLtVV wrong")
	}
	if n := SelLeVV(res, a, b, sel, 2); n != 1 {
		t.Fatal("chained SelLeVV wrong")
	}
}

func TestSelTrueFalse(t *testing.T) {
	a := []bool{true, false, true}
	res := make([]int32, 3)
	if n := SelTrue(res, a, nil, 3); n != 2 || res[0] != 0 || res[1] != 2 {
		t.Fatal("SelTrue wrong")
	}
	if n := SelFalse(res, a, nil, 3); n != 1 || res[0] != 1 {
		t.Fatal("SelFalse wrong")
	}
	sel := []int32{1, 2}
	if n := SelTrue(res, a, sel, 2); n != 1 || res[0] != 2 {
		t.Fatal("chained SelTrue wrong")
	}
	if n := SelFalse(res, a, sel, 2); n != 1 || res[0] != 1 {
		t.Fatal("chained SelFalse wrong")
	}
}

func TestMapComparisons(t *testing.T) {
	a := i64s(1, 5, 3)
	dst := make([]bool, 3)
	b := i64s(1, 4, 9)
	MapEqVV(dst, a, b, nil, 3)
	if !dst[0] || dst[1] {
		t.Fatal("MapEqVV wrong")
	}
	MapNeVV(dst, a, b, nil, 3)
	if dst[0] || !dst[1] {
		t.Fatal("MapNeVV wrong")
	}
	MapLtVV(dst, a, b, nil, 3)
	if dst[0] || dst[1] || !dst[2] {
		t.Fatal("MapLtVV wrong")
	}
	MapLeVV(dst, a, b, nil, 3)
	if !dst[0] || dst[1] || !dst[2] {
		t.Fatal("MapLeVV wrong")
	}
	// Selected variants only touch live slots.
	dst2 := make([]bool, 3)
	MapEqVV(dst2, a, b, []int32{0}, 1)
	if !dst2[0] || dst2[1] || dst2[2] {
		t.Fatal("selected MapEqVV wrong")
	}
}

func TestLogicKernels(t *testing.T) {
	a := []bool{true, true, false, false}
	b := []bool{true, false, true, false}
	dst := make([]bool, 4)
	MapAnd(dst, a, b, nil, 4)
	if !dst[0] || dst[1] || dst[2] || dst[3] {
		t.Fatal("MapAnd wrong")
	}
	MapOr(dst, a, b, nil, 4)
	if !dst[0] || !dst[1] || !dst[2] || dst[3] {
		t.Fatal("MapOr wrong")
	}
	MapNot(dst, a, nil, 4)
	if dst[0] || !dst[2] {
		t.Fatal("MapNot wrong")
	}
	sel := []int32{1, 3}
	d2 := make([]bool, 4)
	MapAnd(d2, a, a, sel, 2)
	if d2[0] || !d2[1] || d2[2] || d2[3] {
		t.Fatal("selected MapAnd wrong")
	}
	MapOr(d2, b, b, sel, 2)
	if d2[3] {
		t.Fatal("selected MapOr wrong")
	}
	MapNot(d2, a, sel, 2)
	if d2[1] || !d2[3] {
		t.Fatal("selected MapNot wrong")
	}
}

func TestInSet(t *testing.T) {
	a := []string{"DE", "FR", "US", "NL"}
	res := make([]int32, 4)
	if n := SelInSet(res, a, []string{"FR", "NL"}, nil, 4); n != 2 || res[0] != 1 || res[1] != 3 {
		t.Fatalf("SelInSet: %v", res[:n])
	}
	if n := SelInSet(res, a, []string{"FR", "NL"}, []int32{0, 1}, 2); n != 1 {
		t.Fatal("chained SelInSet wrong")
	}
	dst := make([]bool, 4)
	MapInSet(dst, a, []string{"US"}, nil, 4)
	if !dst[2] || dst[0] {
		t.Fatal("MapInSet wrong")
	}
	MapInSet(dst, a, []string{"DE"}, []int32{0}, 1)
	if !dst[0] {
		t.Fatal("selected MapInSet wrong")
	}
}

func TestNullSelectors(t *testing.T) {
	nulls := []bool{false, true, false}
	res := make([]int32, 3)
	if n := SelIsNull(res, nulls, nil, 3); n != 1 || res[0] != 1 {
		t.Fatal("SelIsNull wrong")
	}
	if n := SelIsNotNull(res, nulls, nil, 3); n != 2 {
		t.Fatal("SelIsNotNull wrong")
	}
}

func TestSelOutputAscendingProperty(t *testing.T) {
	f := func(vals []int64, c int64) bool {
		res := make([]int32, len(vals))
		n := SelLtVC(res, vals, c, nil, len(vals))
		for i := 1; i < n; i++ {
			if res[i] <= res[i-1] {
				return false
			}
		}
		// Cross-check count against a scalar loop.
		cnt := 0
		for _, v := range vals {
			if v < c {
				cnt++
			}
		}
		return cnt == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashKernels(t *testing.T) {
	a := i64s(1, 2, 1)
	h := make([]uint64, 3)
	HashI64(h, a, nil, 3)
	if h[0] != h[2] {
		t.Fatal("equal values must hash equal")
	}
	if h[0] == h[1] {
		t.Fatal("1 and 2 collide (suspicious)")
	}
	// Rehash changes and stays consistent.
	h2 := make([]uint64, 3)
	copy(h2, h)
	RehashI64(h2, i64s(9, 9, 9), nil, 3)
	if h2[0] == h[0] {
		t.Fatal("rehash must change hash")
	}
	if h2[0] != h2[2] {
		t.Fatal("rehash must stay consistent for equal prefixes")
	}

	f := []float64{1.5, 0.0}
	hf := make([]uint64, 2)
	HashF64(hf, f, nil, 2)
	hneg := make([]uint64, 2)
	HashF64(hneg, []float64{1.5, negZero()}, nil, 2)
	if hf[1] != hneg[1] {
		t.Fatal("-0.0 must hash like +0.0")
	}

	s := []string{"ab", "ab", "ba"}
	hs := make([]uint64, 3)
	HashStr(hs, s, nil, 3)
	if hs[0] != hs[1] || hs[0] == hs[2] {
		t.Fatal("string hash wrong")
	}

	bb := []bool{true, false, true}
	hb := make([]uint64, 3)
	HashBool(hb, bb, nil, 3)
	if hb[0] != hb[2] || hb[0] == hb[1] {
		t.Fatal("bool hash wrong")
	}

	// Selected variants.
	hsel := make([]uint64, 3)
	HashI64(hsel, a, []int32{1}, 1)
	if hsel[1] != h[1] || hsel[0] != 0 {
		t.Fatal("selected HashI64 wrong")
	}
	RehashF64(hf, f, nil, 2)
	RehashStr(hs, s, nil, 3)
	RehashBool(hb, bb, nil, 3)
	if hs[0] != hs[1] {
		t.Fatal("RehashStr must stay consistent")
	}
	RehashF64(hf, f, []int32{0}, 1)
	RehashStr(hs, s, []int32{0}, 1)
	RehashBool(hb, bb, []int32{0}, 1)
	RehashI64(h, a, []int32{0}, 1)
}

func negZero() float64 { z := 0.0; return -z }

func TestAggKernels(t *testing.T) {
	groups := []uint32{0, 1, 0, 1, 0}
	vals := i64s(1, 10, 2, 20, 3)
	acc := make([]int64, 2)
	AggSum(acc, groups, vals, nil, 5)
	if acc[0] != 6 || acc[1] != 30 {
		t.Fatalf("AggSum wrong: %v", acc)
	}
	cnt := make([]int64, 2)
	AggCount(cnt, groups, nil, 5)
	if cnt[0] != 3 || cnt[1] != 2 {
		t.Fatalf("AggCount wrong: %v", cnt)
	}
	mn := make([]int64, 2)
	mx := make([]int64, 2)
	seen1 := make([]bool, 2)
	seen2 := make([]bool, 2)
	AggMin(mn, seen1, groups, vals, nil, 5)
	AggMax(mx, seen2, groups, vals, nil, 5)
	if mn[0] != 1 || mn[1] != 10 || mx[0] != 3 || mx[1] != 20 {
		t.Fatalf("AggMin/Max wrong: %v %v", mn, mx)
	}
	// Selected.
	acc2 := make([]int64, 2)
	AggSum(acc2, groups, vals, []int32{0, 4}, 2)
	if acc2[0] != 4 || acc2[1] != 0 {
		t.Fatal("selected AggSum wrong")
	}
	cnt2 := make([]int64, 2)
	AggCount(cnt2, groups, []int32{1}, 1)
	if cnt2[1] != 1 {
		t.Fatal("selected AggCount wrong")
	}
	AggMin(mn, seen1, groups, vals, []int32{1}, 1)
	AggMax(mx, seen2, groups, vals, []int32{1}, 1)
}

// TestPartitionAndReduceMatchScatter: partitioning a batch by group and
// reducing each group's run gives every group the count and sums the
// scatter kernels give it, dense and under a selection vector, for run
// lengths on either side of the four-way unrolling.
func TestPartitionAndReduceMatchScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, numGroups := range []int{1, 3, 16, 40} {
		for _, n := range []int{0, 1, 3, 4, 5, 9, 1024} {
			groups, vals, fvals := make([]uint32, n), make([]int64, n), make([]float64, n)
			for i := range groups {
				groups[i], vals[i] = uint32(rng.Intn(numGroups)), rng.Int63n(1000)-500
				fvals[i] = float64(vals[i])
			}
			var sparse []int32
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					sparse = append(sparse, int32(i))
				}
			}
			for _, sel := range [][]int32{nil, sparse} {
				live := n
				if sel != nil {
					live = len(sel)
				}
				cnt, sum, fsum := make([]int64, numGroups), make([]int64, numGroups), make([]float64, numGroups)
				AggCount(cnt, groups, sel, live)
				AggSum(sum, groups, vals, sel, live)
				AggSum(fsum, groups, fvals, sel, live)
				part, offs := make([]int32, live), make([]int32, PartitionLanes*numGroups)
				PartitionGroups(part, offs, groups, numGroups, sel, live)
				if offs[0] != 0 || offs[numGroups] != int32(live) {
					t.Fatalf("groups=%d n=%d: offsets %v do not span the %d live rows", numGroups, n, offs[:numGroups+1], live)
				}
				for g := range numGroups {
					run := part[offs[g]:offs[g+1]]
					for _, i := range run {
						if groups[i] != uint32(g) {
							t.Fatalf("groups=%d n=%d: row %d of group %d in group %d's run", numGroups, n, i, groups[i], g)
						}
					}
					if int64(len(run)) != cnt[g] || ReduceSum(vals, run, len(run)) != sum[g] ||
						ReduceSum(fvals, run, len(run)) != fsum[g] {
						t.Fatalf("groups=%d n=%d: group %d run of %d rows disagrees with the scatter kernels", numGroups, n, g, len(run))
					}
				}
			}
			if ReduceSum(vals, nil, n) != ReduceSum(vals, identity(n), n) {
				t.Fatalf("n=%d: dense and selected reductions differ", n)
			}
		}
	}
}

func identity(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

func TestAggMinFirstValueWins(t *testing.T) {
	// A value larger than the zero-initialized accumulator must still
	// be taken as the first minimum (the seen flag guards it).
	acc := []int64{0}
	seen := []bool{false}
	AggMin(acc, seen, []uint32{0}, i64s(42), nil, 1)
	if acc[0] != 42 {
		t.Fatal("first value must initialize min accumulator")
	}
	// And for max with negatives.
	acc2 := []int64{0}
	seen2 := []bool{false}
	AggMax(acc2, seen2, []uint32{0}, i64s(-42), nil, 1)
	if acc2[0] != -42 {
		t.Fatal("first value must initialize max accumulator")
	}
}

func TestGatherCompact(t *testing.T) {
	src := []int64{10, 20, 30, 40}
	dst := make([]int64, 3)
	Gather(dst, src, []uint32{3, 0, 2}, 3)
	if dst[0] != 40 || dst[1] != 10 || dst[2] != 30 {
		t.Fatalf("Gather wrong: %v", dst)
	}
	c := make([]int64, 2)
	CompactSel(c, src, []int32{1, 3}, 2)
	if c[0] != 20 || c[1] != 40 {
		t.Fatal("CompactSel wrong")
	}
	CompactSel(c, src, nil, 2)
	if c[0] != 10 {
		t.Fatal("dense CompactSel wrong")
	}
}

func TestClassifyLike(t *testing.T) {
	cases := []struct {
		pat   string
		shape LikeShape
		lit   string
	}{
		{"hello", LikeExact, "hello"},
		{"pre%", LikePrefix, "pre"},
		{"%suf", LikeSuffix, "suf"},
		{"%mid%", LikeContains, "mid"},
		{"a%b", LikeGeneral, "a%b"},
		{"a_c", LikeGeneral, "a_c"},
		{"%a%b%", LikeGeneral, "%a%b%"},
		{"%\x96", LikeGeneral, "%\x96"}, // not valid UTF-8
	}
	for _, c := range cases {
		shape, lit := ClassifyLike(c.pat)
		if shape != c.shape || lit != c.lit {
			t.Errorf("ClassifyLike(%q) = (%d,%q), want (%d,%q)", c.pat, shape, lit, c.shape, c.lit)
		}
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"forest green metallic", "%green%", true},
		{"forest blue", "%green%", false},
		{"special packages requests", "%special%requests%", true},
		{"special requests", "%special%requests%", true},
		{"requests special", "%special%requests%", false},
		{"abc", "a_c", true},
		{"ac", "a_c", false},
		{"abc", "abc", true},
		{"abc", "ab", false},
		{"", "%", true},
		{"", "", true},
		{"x", "", false},
		{"anything", "%%", true},
		{"ab", "a%b%c", false},
		{"a-b-c", "a%b%c", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.pat); got != c.want {
			t.Errorf("MatchLike(%q,%q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestSelLikeDispatch(t *testing.T) {
	a := []string{"green apple", "dark green", "blue", "green"}
	res := make([]int32, 4)
	if n := SelLike(res, a, "green%", nil, 4); n != 2 || res[0] != 0 || res[1] != 3 {
		t.Fatalf("prefix like: %v", res[:n])
	}
	if n := SelLike(res, a, "%green", nil, 4); n != 2 || res[0] != 1 || res[1] != 3 {
		t.Fatalf("suffix like: %v", res[:n])
	}
	if n := SelLike(res, a, "%green%", nil, 4); n != 3 {
		t.Fatalf("contains like: n=%d", n)
	}
	if n := SelLike(res, a, "blue", nil, 4); n != 1 || res[0] != 2 {
		t.Fatalf("exact like: %v", res[:n])
	}
	if n := SelLike(res, a, "g%n a%e", nil, 4); n != 1 || res[0] != 0 {
		t.Fatalf("general like: n=%d", n)
	}
	if n := SelLike(res, a, "%a%e", nil, 4); n != 1 || res[0] != 0 {
		t.Fatalf("general like 2: %v", res[:n])
	}
	if n := SelNotLike(res, a, "%green%", nil, 4); n != 1 || res[0] != 2 {
		t.Fatalf("not like: %v", res[:n])
	}
	if n := SelLike(res, a, "%green%", []int32{2, 3}, 2); n != 1 || res[0] != 3 {
		t.Fatal("chained like wrong")
	}
	if n := SelNotLike(res, a, "%green%", []int32{2, 3}, 2); n != 1 || res[0] != 2 {
		t.Fatal("chained not-like wrong")
	}
	dst := make([]bool, 4)
	MapLike(dst, a, "%green%", nil, 4)
	if !dst[0] || dst[2] {
		t.Fatal("MapLike wrong")
	}
	MapLike(dst, a, "blue", []int32{2}, 1)
	if !dst[2] {
		t.Fatal("selected MapLike wrong")
	}
}

func TestMatchLikeAgainstNaiveProperty(t *testing.T) {
	// Compare the backtracking matcher against a recursive reference on
	// random short strings/patterns drawn from a tiny alphabet.
	var ref func(s, p string) bool
	ref = func(s, p string) bool {
		if p == "" {
			return s == ""
		}
		switch p[0] {
		case '%':
			for i := 0; i <= len(s); i++ {
				if ref(s[i:], p[1:]) {
					return true
				}
			}
			return false
		case '_':
			return s != "" && ref(s[1:], p[1:])
		default:
			return s != "" && s[0] == p[0] && ref(s[1:], p[1:])
		}
	}
	rng := rand.New(rand.NewSource(42))
	alpha := "ab%_"
	for trial := 0; trial < 2000; trial++ {
		s := randStr(rng, "ab", 8)
		p := randStr(rng, alpha, 6)
		if MatchLike(s, p) != ref(s, p) {
			t.Fatalf("MatchLike(%q,%q) disagrees with reference", s, p)
		}
	}
}

func randStr(rng *rand.Rand, alpha string, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

// TestBranchFreeRangeKernels: the branch-free range kernels agree with a
// plain loop over random data, dense and under a selection vector with
// res aliasing sel, including the integer between's empty and
// full-width ranges.
func TestBranchFreeRangeKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := []int64{-1 << 63, -1<<63 + 1, -1, 0, 1, 1<<63 - 2, 1<<63 - 1}
	pick := func() int64 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return int64(rng.Intn(21) - 10)
	}
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(40)
		a, b := make([]int64, n), make([]int64, n)
		for i := range a {
			a[i], b[i] = pick(), pick()
		}
		c, lo, hi := pick(), pick(), pick()
		for _, k := range []struct {
			name string
			run  func(res, sel []int32, m int) int
			keep func(i int) bool
		}{
			{"lt", func(res, sel []int32, m int) int { return SelLtVC(res, a, c, sel, m) }, func(i int) bool { return a[i] < c }},
			{"le", func(res, sel []int32, m int) int { return SelLeVC(res, a, c, sel, m) }, func(i int) bool { return a[i] <= c }},
			{"gt", func(res, sel []int32, m int) int { return SelGtVC(res, a, c, sel, m) }, func(i int) bool { return a[i] > c }},
			{"ge", func(res, sel []int32, m int) int { return SelGeVC(res, a, c, sel, m) }, func(i int) bool { return a[i] >= c }},
			{"ltvv", func(res, sel []int32, m int) int { return SelLtVV(res, a, b, sel, m) }, func(i int) bool { return a[i] < b[i] }},
			{"levv", func(res, sel []int32, m int) int { return SelLeVV(res, a, b, sel, m) }, func(i int) bool { return a[i] <= b[i] }},
			{"between", func(res, sel []int32, m int) int { return SelBetweenVC(res, a, lo, hi, sel, m) }, func(i int) bool { return lo <= a[i] && a[i] <= hi }},
			{"between-i64", func(res, sel []int32, m int) int { return SelBetweenI64VC(res, a, lo, hi, sel, m) }, func(i int) bool { return lo <= a[i] && a[i] <= hi }},
		} {
			var want []int32
			sel := make([]int32, 0, n)
			var wantSel []int32
			for i := 0; i < n; i++ {
				if k.keep(i) {
					want = append(want, int32(i))
				}
				if rng.Intn(2) == 0 {
					sel = append(sel, int32(i))
					if k.keep(i) {
						wantSel = append(wantSel, int32(i))
					}
				}
			}
			res := make([]int32, n)
			if m := k.run(res, nil, n); !equalI32(res[:m], want) {
				t.Fatalf("%s dense (c=%d lo=%d hi=%d): %v, want %v", k.name, c, lo, hi, res[:m], want)
			}
			if m := k.run(sel, sel, len(sel)); !equalI32(sel[:m], wantSel) {
				t.Fatalf("%s under sel (c=%d lo=%d hi=%d): %v, want %v", k.name, c, lo, hi, sel[:m], wantSel)
			}
		}
	}
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkSelRange reports ns/row of three selection kernels on
// 1 024-row BIGINT vectors at 0, 15, 50 and 98 % selectivity, with the
// qualifying rows scattered at random: `>=` and BETWEEN, which are
// branch-free, and constant `=`, which branches. Each call reads the next
// of 64 different vectors, so a branch predictor cannot learn the data.
func BenchmarkSelRange(b *testing.B) {
	const n, vecs = 1024, 64
	for _, pct := range []int{0, 15, 50, 98} {
		rng := rand.New(rand.NewSource(int64(pct)))
		a := make([]int64, n*vecs)
		for i := range a {
			a[i] = int64(rng.Intn(1000)) // fails every kernel below
			if rng.Intn(100) < pct {
				a[i] = 5000 // passes every kernel below
			}
		}
		res := make([]int32, n)
		for _, k := range []struct {
			name string
			run  func(v []int64) int
		}{
			{"ge", func(v []int64) int { return SelGeVC(res, v, 2000, nil, n) }},
			{"between", func(v []int64) int { return SelBetweenI64VC(res, v, 2000, 9999, nil, n) }},
			{"eq", func(v []int64) int { return SelEqVC(res, v, 5000, nil, n) }},
		} {
			b.Run(fmt.Sprintf("%s/sel=%d%%", k.name, pct), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					o := i % vecs * n
					benchSink += k.run(a[o : o+n])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}

var benchSink int

// MinMaxI64 reads only the live rows, extremes included; MapAddOffsets
// adds each live row's offset from base, times stride, and leaves the
// other rows alone.
func TestIntegerCodeKernels(t *testing.T) {
	const minI, maxI = -1 << 63, 1<<63 - 1
	vals := i64s(5, -3, maxI, 7, minI, 6)
	for _, c := range []struct {
		sel    []int32
		n      int
		lo, hi int64
	}{
		{nil, 2, -3, 5},
		{nil, 6, minI, maxI},
		{[]int32{0, 3, 5}, 3, 5, 7},
		{[]int32{2}, 1, maxI, maxI},
		{[]int32{1, 4}, 2, minI, -3},
	} {
		if lo, hi := MinMaxI64(vals, c.sel, c.n); lo != c.lo || hi != c.hi {
			t.Errorf("MinMaxI64(sel %v, n %d) = %d, %d, want %d, %d", c.sel, c.n, lo, hi, c.lo, c.hi)
		}
	}
	dst := []uint16{1, 1, 1, 1, 1, 1}
	MapAddOffsets(dst, vals, 5, 10, []int32{0, 3, 5}, 3)
	if want := []uint16{1, 1, 1, 21, 1, 11}; fmt.Sprint(dst) != fmt.Sprint(want) {
		t.Errorf("selected MapAddOffsets = %v, want %v", dst, want)
	}
	dst = make([]uint16, 3)
	MapAddOffsets(dst, i64s(maxI-2, maxI, maxI-1), maxI-2, 3, nil, 3)
	if want := []uint16{0, 6, 3}; fmt.Sprint(dst) != fmt.Sprint(want) {
		t.Errorf("dense MapAddOffsets at MaxInt64 = %v, want %v", dst, want)
	}
}

// TestDoubleCodeKernels: the kernels that read a coded DOUBLE through its
// dictionary give bit for bit what the plain kernels give over the decoded
// values: SumCodes ReduceSum's four-lane sum, AggSumCodes AggSum's row
// order, MapCodes and CompactCodes the values themselves, dense and
// behind a selection, at lengths around the four-lane unrolling.
func TestDoubleCodeKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := range 200 {
		// Magnitudes far apart, so a sum in another order rounds otherwise.
		dict := make([]float64, 2+rng.Intn(30))
		for i := range dict {
			dict[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(24)-8))
		}
		n := []int{0, 1, 3, 4, 5, 9, 1024}[trial%7]
		codes, vals := make([]uint8, n), make([]float64, n)
		groups := make([]uint32, n)
		for i := range codes {
			codes[i] = uint8(rng.Intn(len(dict)))
			vals[i] = dict[codes[i]]
			groups[i] = uint32(rng.Intn(3))
		}
		var sparse []int32
		for i := 0; i < n; i += 1 + rng.Intn(3) {
			sparse = append(sparse, int32(i))
		}
		for _, sel := range [][]int32{nil, sparse} {
			m := n
			if sel != nil {
				m = len(sel)
			}
			name := fmt.Sprintf("trial %d n=%d sparse=%v", trial, n, sel != nil)
			if got, want := SumCodes(codes, dict, sel, m), ReduceSum(vals, sel, m); got != want {
				t.Fatalf("%s: SumCodes %v, ReduceSum %v", name, got, want)
			}
			got, want := make([]float64, 3), make([]float64, 3)
			AggSumCodes(got, groups, codes, dict, sel, m)
			AggSum(want, groups, vals, sel, m)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: AggSumCodes %v, AggSum %v", name, got, want)
			}
			mapped, compact := make([]float64, n), make([]float64, m)
			MapCodes(mapped, codes, dict, sel, m)
			CompactCodes(compact, codes, dict, sel, m)
			for k := range m {
				i := k
				if sel != nil {
					i = int(sel[k])
				}
				if mapped[i] != vals[i] || compact[k] != vals[i] {
					t.Fatalf("%s: row %d mapped %v, compacted %v, want %v", name, i, mapped[i], compact[k], vals[i])
				}
			}
		}
	}
}

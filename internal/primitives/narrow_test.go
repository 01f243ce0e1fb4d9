package primitives

import (
	"math"
	"testing"
)

// TestNarrowWidenRoundTrip: narrowing over a base and widening back give
// the values, at each offset width, at both ends of the int64 range and
// across WidenI64's unrolled steps and tail; the largest difference is
// the range the values span over the base, and a value below the base
// reads as a difference beyond every 32-bit range.
func TestNarrowWidenRoundTrip(t *testing.T) {
	check := func(name string, vals []int64, base int64, wantHi uint64, narrow func([]int64, int64) uint64) {
		t.Helper()
		if hi := narrow(vals, base); hi != wantHi {
			t.Errorf("%s: largest difference %d, want %d", name, hi, wantHi)
		}
	}
	rt := func(vals []int64, base int64) uint64 {
		off := make([]uint32, len(vals))
		hi := NarrowI64(off, vals, base)
		got := make([]int64, len(vals))
		WidenI64(got, off, base)
		if hi <= math.MaxUint32 {
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("row %d widens to %d, want %d", i, got[i], vals[i])
				}
			}
		}
		if m := MaxOffsetI64(vals, base); m != hi {
			t.Fatalf("MaxOffsetI64 %d, NarrowI64 %d", m, hi)
		}
		return hi
	}
	check("bytes", []int64{7, 7 + 255, 9}, 7, 255, func(v []int64, b int64) uint64 {
		off := make([]uint8, len(v))
		hi := NarrowI64(off, v, b)
		got := make([]int64, len(v))
		WidenI64(got, off, b)
		if got[1] != 7+255 {
			t.Fatalf("255 over 7 widens to %d", got[1])
		}
		return hi
	})
	check("words", []int64{-40000, -40000 + 65535}, -40000, 65535, func(v []int64, b int64) uint64 {
		off := make([]uint16, len(v))
		hi := NarrowI64(off, v, b)
		got := make([]int64, len(v))
		WidenI64(got, off, b)
		if got[1] != -40000+65535 {
			t.Fatalf("65535 over -40000 widens to %d", got[1])
		}
		return hi
	})
	check("low end", []int64{math.MinInt64, math.MinInt64 + math.MaxUint32}, math.MinInt64, math.MaxUint32, rt)
	check("high end", []int64{math.MaxInt64 - math.MaxUint32, math.MaxInt64}, math.MaxInt64-math.MaxUint32, math.MaxUint32, rt)
	check("full range", []int64{math.MinInt64, math.MaxInt64}, math.MinInt64, math.MaxUint64, rt)
	check("below base", []int64{4, 3}, 4, math.MaxUint64, rt)
	long := make([]int64, 19) // two unrolled steps of eight and a tail of three
	for i := range long {
		long[i] = -5 + int64(i*7%19)
	}
	check("unrolled", long, -5, 18, rt)
}

// BenchmarkWidenVector widens one vector's worth (1 024 offsets) of a
// narrow chunk at a time, as a scan does, at each offset width (ns/value);
// compress's BenchmarkUnpackBitsVector is the bit-packed image beside it.
func BenchmarkWidenVector(b *testing.B) {
	const n, vecs = 1024, 64
	dst := make([]int64, n)
	b.Run("width=1", func(b *testing.B) { benchWiden(b, make([]uint8, n*vecs), dst) })
	b.Run("width=2", func(b *testing.B) { benchWiden(b, make([]uint16, n*vecs), dst) })
	b.Run("width=4", func(b *testing.B) { benchWiden(b, make([]uint32, n*vecs), dst) })
}

func benchWiden[T Offset](b *testing.B, off []T, dst []int64) {
	for i := range off {
		off[i] = T(i * 2654435761)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := i % (len(off) / len(dst)) * len(dst)
		WidenI64(dst, off[o:], 1000)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/value")
}

package vector

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vectorwise/internal/vtypes"
)

func TestNewAllKinds(t *testing.T) {
	for _, k := range []vtypes.Kind{vtypes.KindI64, vtypes.KindF64, vtypes.KindStr, vtypes.KindBool, vtypes.KindDate} {
		v := New(k, 8)
		if v.Len() != 8 {
			t.Fatalf("kind %v: Len = %d", k, v.Len())
		}
	}
}

func TestNewInvalidKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(KindInvalid) must panic")
		}
	}()
	New(vtypes.KindInvalid, 4)
}

func TestGetSetRoundtrip(t *testing.T) {
	vals := []vtypes.Value{
		vtypes.I64Value(-5),
		vtypes.F64Value(1.25),
		vtypes.StrValue("abc"),
		vtypes.BoolValue(true),
		vtypes.DateValue(100),
		vtypes.NullValue(vtypes.KindI64),
	}
	kinds := []vtypes.Kind{vtypes.KindI64, vtypes.KindF64, vtypes.KindStr, vtypes.KindBool, vtypes.KindDate, vtypes.KindI64}
	for i, val := range vals {
		v := New(kinds[i], 4)
		v.Set(2, val)
		got := v.Get(2)
		if got.Null != val.Null || (!val.Null && got.Compare(val) != 0) {
			t.Errorf("roundtrip %v: got %v", val, got)
		}
	}
}

func TestSetNullWritesSafeValue(t *testing.T) {
	v := New(vtypes.KindI64, 2)
	v.I64[0] = 99
	v.Set(0, vtypes.NullValue(vtypes.KindI64))
	if v.I64[0] != 0 {
		t.Fatal("NULL must overwrite payload with the safe value 0")
	}
	if !v.Nulls[0] {
		t.Fatal("null indicator not set")
	}
	// Setting non-null again clears the indicator.
	v.Set(0, vtypes.I64Value(7))
	if v.Nulls[0] || v.I64[0] != 7 {
		t.Fatal("indicator must clear on non-null Set")
	}
}

func TestCopyFrom(t *testing.T) {
	src := New(vtypes.KindStr, 4)
	src.Str = []string{"a", "b", "c", "d"}
	src.EnsureNulls()
	src.Nulls[1] = true
	dst := New(vtypes.KindStr, 4)
	dst.CopyFrom(src, 1, 0, 3)
	if dst.Str[0] != "b" || dst.Str[2] != "d" {
		t.Fatalf("payload copy wrong: %v", dst.Str)
	}
	if !dst.Nulls[0] || dst.Nulls[1] {
		t.Fatal("null copy wrong")
	}
}

func TestCopyFromClearsStaleNulls(t *testing.T) {
	src := New(vtypes.KindI64, 2)
	dst := New(vtypes.KindI64, 2)
	dst.EnsureNulls()
	dst.Nulls[0] = true
	dst.CopyFrom(src, 0, 0, 2)
	if dst.Nulls[0] {
		t.Fatal("copy from non-null src must clear dst nulls")
	}
}

func TestGatherFrom(t *testing.T) {
	src := New(vtypes.KindF64, 4)
	src.F64 = []float64{10, 20, 30, 40}
	dst := New(vtypes.KindF64, 2)
	dst.GatherFrom(src, []int32{3, 1})
	if dst.F64[0] != 40 || dst.F64[1] != 20 {
		t.Fatalf("gather wrong: %v", dst.F64)
	}
}

func TestBatchBasics(t *testing.T) {
	sch := vtypes.NewSchema(
		vtypes.Column{Name: "a", Kind: vtypes.KindI64},
		vtypes.Column{Name: "b", Kind: vtypes.KindStr},
	)
	b := NewBatch(sch, 8)
	if b.Capacity() != 8 || len(b.Vecs) != 2 {
		t.Fatal("NewBatch wrong shape")
	}
	b.Vecs[0].I64[0] = 1
	b.Vecs[0].I64[1] = 2
	b.Vecs[1].Str[0] = "x"
	b.Vecs[1].Str[1] = "y"
	b.SetDense(2)
	if b.N != 2 || b.Sel != nil {
		t.Fatal("SetDense wrong")
	}
	r := b.Row(1)
	if r[0].I64 != 2 || r[1].Str != "y" {
		t.Fatalf("Row wrong: %v", r)
	}
}

func TestBatchSel(t *testing.T) {
	b := NewBatchOfKinds([]vtypes.Kind{vtypes.KindI64}, 4)
	copy(b.Vecs[0].I64, []int64{10, 20, 30, 40})
	sel := b.MutableSel(4)
	sel[0], sel[1] = 1, 3
	b.SetSel(sel, 2)
	if b.N != 2 || b.LiveIndex(0) != 1 || b.LiveIndex(1) != 3 {
		t.Fatal("selection wrong")
	}
	if b.Row(1)[0].I64 != 40 {
		t.Fatal("Row through sel wrong")
	}
}

func TestBatchKinds(t *testing.T) {
	b := NewBatchOfKinds([]vtypes.Kind{vtypes.KindI64, vtypes.KindStr}, 2)
	ks := b.Kinds()
	if ks[0] != vtypes.KindI64 || ks[1] != vtypes.KindStr {
		t.Fatal("Kinds wrong")
	}
}

func TestEmptyBatchCapacity(t *testing.T) {
	b := &Batch{}
	if b.Capacity() != 0 {
		t.Fatal("empty batch capacity must be 0")
	}
}

func TestMutableSelReuses(t *testing.T) {
	b := NewBatchOfKinds([]vtypes.Kind{vtypes.KindI64}, 16)
	s1 := b.MutableSel(8)
	b.SetSel(s1, 0)
	s2 := b.MutableSel(8)
	if &s1[0] != &s2[0] {
		t.Fatal("MutableSel must reuse the buffer when capacity suffices")
	}
}

// coded returns a coded VARCHAR vector, as a scan delivers one: codes and
// a dictionary, no strings. Its rows read N, A, R, A.
func coded() *Vector {
	return &Vector{Kind: vtypes.KindStr, Codes: []uint8{0, 2, 1, 2}, Shared: &Shared{Dict: []string{"N", "R", "A"}}}
}

// TestCodedReadsThroughDict: a coded vector's length is its codes', and
// Get, StrAt, CopyFrom and GatherFrom read each slot through the
// dictionary; a batch of coded vectors has their capacity.
func TestCodedReadsThroughDict(t *testing.T) {
	v := coded()
	if v.Len() != 4 || (&Batch{Vecs: []*Vector{v}}).Capacity() != 4 {
		t.Fatalf("coded vector of 4 rows has Len %d", v.Len())
	}
	for i, want := range []string{"N", "A", "R", "A"} {
		if v.StrAt(i) != want || v.Get(i).Str != want {
			t.Fatalf("row %d reads %q and %v, want %q", i, v.StrAt(i), v.Get(i), want)
		}
	}
	dst := New(vtypes.KindStr, 4)
	dst.CopyFrom(v, 1, 0, 3)
	if got := fmt.Sprint(dst.Str); got != "[A R A ]" {
		t.Fatalf("CopyFrom rows 1..3: %s", got)
	}
	dst.GatherFrom(v, []int32{2, 0})
	if got := fmt.Sprint(dst.Str[:2]); got != "[R N]" {
		t.Fatalf("GatherFrom rows 2 and 0: %s", got)
	}
}

// TestFillFrom: a plain vector is returned as is; a coded one's live rows
// are filled into the caller's buffer, which reaches the last live row,
// keeps its capacity and shares the null indicator.
func TestFillFrom(t *testing.T) {
	var buf Vector
	plain := New(vtypes.KindStr, 2)
	if buf.FillFrom(plain, nil, 2) != plain || buf.Str != nil {
		t.Fatal("FillFrom of a plain vector must return it and fill nothing")
	}
	v := coded()
	v.Nulls = []bool{false, true, false, false}
	got := buf.FillFrom(v, []int32{1}, 1)
	if got != &buf || got.Codes != nil || len(got.Str) != 2 || got.Str[1] != "A" || got.Str[0] != "" || &got.Nulls[0] != &v.Nulls[0] {
		t.Fatalf("FillFrom of row 1: %q nulls %v", got.Str, got.Nulls)
	}
	if got = buf.FillFrom(v, []int32{1, 3}, 2); len(got.Str) != 4 || got.Str[1] != "A" || got.Str[3] != "A" {
		t.Fatalf("FillFrom of rows 1 and 3: %q", got.Str)
	}
	first := &buf.Str[0]
	buf.FillFrom(coded(), nil, 4)
	if &buf.Str[0] != first || fmt.Sprint(buf.Str) != "[N A R A]" || buf.Nulls != nil {
		t.Fatalf("dense FillFrom: %q, buffer reused %v", buf.Str, &buf.Str[0] == first)
	}
}

// TestWritesDropCodes: every writer leaves a vector without codes, since
// the slots it writes hold their own strings.
func TestWritesDropCodes(t *testing.T) {
	for name, write := range map[string]func(v *Vector){
		"Set":        func(v *Vector) { v.Set(1, vtypes.StrValue("X")) },
		"Set NULL":   func(v *Vector) { v.Set(1, vtypes.NullValue(vtypes.KindStr)) },
		"CopyFrom":   func(v *Vector) { v.CopyFrom(coded(), 0, 1, 2) },
		"GatherFrom": func(v *Vector) { v.GatherFrom(coded(), []int32{3}) },
	} {
		v := New(vtypes.KindStr, 4)
		v.Codes, v.Shared = []uint8{0, 0, 0, 0}, &Shared{Dict: []string{"N"}}
		write(v)
		if v.Codes != nil || v.Dict() != nil {
			t.Errorf("%s left codes %v over %v", name, v.Codes, v.Dict())
		}
	}
}

func TestSameDict(t *testing.T) {
	a := []string{"x", "y"}
	b := append([]string(nil), a...)
	if !SameDict(a, a) || SameDict(a, b) || SameDict(a, a[:1]) || !SameDict[string](nil, nil) || SameDict(nil, a) {
		t.Fatal("SameDict must compare identity, not contents")
	}
}

// codedF64 returns a coded DOUBLE vector, as a scan delivers one: codes
// and a dictionary of bit patterns, no values. Its rows read −0, NaN
// (payload 1), +0, NaN.
func codedF64() *Vector {
	return &Vector{Kind: vtypes.KindF64, Codes: []uint8{2, 0, 1, 0},
		Shared: &Shared{DictF64: []float64{math.Float64frombits(0x7ff8000000000001), 0, math.Copysign(0, -1)}}}
}

// TestCodedF64ReadsThroughDict: a coded DOUBLE's length is its codes',
// and Get, F64At, CopyFrom and GatherFrom read each slot's bit pattern
// through the dictionary; FillFrom fills the live rows' values; every
// writer drops the codes.
func TestCodedF64ReadsThroughDict(t *testing.T) {
	bits := func(f []float64) string {
		out := make([]string, len(f))
		for i, x := range f {
			out[i] = fmt.Sprintf("%x", math.Float64bits(x))
		}
		return strings.Join(out, " ")
	}
	v := codedF64()
	want := []float64{math.Copysign(0, -1), v.DictF64()[0], 0, v.DictF64()[0]}
	if v.Len() != 4 || (&Batch{Vecs: []*Vector{v}}).Capacity() != 4 {
		t.Fatalf("coded vector of 4 rows has Len %d", v.Len())
	}
	for i := range want {
		if got := []float64{v.F64At(i), v.Get(i).F64}; bits(got) != bits([]float64{want[i], want[i]}) {
			t.Fatalf("row %d reads %s, want %s", i, bits(got), bits(want[i:i+1]))
		}
	}
	dst := New(vtypes.KindF64, 4)
	dst.CopyFrom(v, 1, 0, 3)
	if bits(dst.F64[:3]) != bits(want[1:]) {
		t.Fatalf("CopyFrom rows 1..3: %s", bits(dst.F64))
	}
	dst.GatherFrom(v, []int32{2, 0})
	if bits(dst.F64[:2]) != bits([]float64{want[2], want[0]}) {
		t.Fatalf("GatherFrom rows 2 and 0: %s", bits(dst.F64[:2]))
	}
	var buf Vector
	if got := buf.FillFrom(v, []int32{1, 2}, 2); got != &buf || got.Codes != nil || len(got.F64) != 3 || bits(got.F64[1:]) != bits(want[1:3]) {
		t.Fatalf("FillFrom of rows 1 and 2: %s", bits(got.F64))
	}
	for name, write := range map[string]func(v *Vector){
		"Set":        func(v *Vector) { v.Set(1, vtypes.F64Value(1)) },
		"CopyFrom":   func(v *Vector) { v.CopyFrom(codedF64(), 0, 1, 2) },
		"GatherFrom": func(v *Vector) { v.GatherFrom(codedF64(), []int32{3}) },
	} {
		w := New(vtypes.KindF64, 4)
		w.Codes, w.Shared = []uint8{0, 0, 0, 0}, &Shared{DictF64: []float64{7}}
		write(w)
		if w.Codes != nil || w.DictF64() != nil {
			t.Errorf("%s left codes %v over %v", name, w.Codes, w.DictF64())
		}
	}
}

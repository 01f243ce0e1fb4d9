package vector

import (
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

func TestSliceSharesStorage(t *testing.T) {
	v := New(vtypes.KindI64, 4)
	s := v.Slice(2)
	s.I64[0] = 42
	if v.I64[0] != 42 {
		t.Fatal("Slice must share storage")
	}
	if s.Len() != 2 {
		t.Fatal("Slice length wrong")
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

// coded returns a VARCHAR vector carrying dictionary codes, as a scan
// delivers one: Str[i] == Dict[Codes[i]].
func coded() *Vector {
	dict := []string{"N", "R", "A"}
	v := &Vector{Kind: vtypes.KindStr, Codes: []uint8{2, 0, 1, 0}, Dict: dict}
	for _, c := range v.Codes {
		v.Str = append(v.Str, dict[c])
	}
	return v
}

// TestWritesDropCodes: every writer leaves a vector without codes, since
// the written slots no longer read through the dictionary; a view by
// Slice carries none either. Reading from a coded vector copies strings.
func TestWritesDropCodes(t *testing.T) {
	for name, write := range map[string]func(v *Vector){
		"Set":        func(v *Vector) { v.Set(1, vtypes.StrValue("X")) },
		"Set NULL":   func(v *Vector) { v.Set(1, vtypes.NullValue(vtypes.KindStr)) },
		"CopyFrom":   func(v *Vector) { v.CopyFrom(New(vtypes.KindStr, 4), 0, 1, 2) },
		"GatherFrom": func(v *Vector) { v.GatherFrom(New(vtypes.KindStr, 4), []int32{3}) },
	} {
		v := coded()
		write(v)
		if v.Codes != nil || v.Dict != nil {
			t.Errorf("%s left codes %v over %v", name, v.Codes, v.Dict)
		}
	}
	if s := coded().Slice(2); s.Codes != nil || s.Dict != nil || s.Str[0] != "A" {
		t.Errorf("Slice carried codes %v", s.Codes)
	}
	dst := New(vtypes.KindStr, 4)
	dst.CopyFrom(coded(), 0, 0, 4)
	dst.GatherFrom(coded(), []int32{3, 0})
	if dst.Codes != nil || dst.Str[0] != "N" || dst.Str[1] != "A" || dst.Str[2] != "R" {
		t.Errorf("copies from a coded vector: %v codes %v", dst.Str, dst.Codes)
	}
}

func TestSameDict(t *testing.T) {
	a := []string{"x", "y"}
	b := append([]string(nil), a...)
	if !SameDict(a, a) || SameDict(a, b) || SameDict(a, a[:1]) || !SameDict(nil, nil) || SameDict(nil, a) {
		t.Fatal("SameDict must compare identity, not contents")
	}
}

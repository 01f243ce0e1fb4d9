package vector

import (
	"fmt"
	"testing"
	"unsafe"

	"vectorwise/internal/vtypes"
)

// arena returns an arena vector of five rows, the last one empty, whose
// offsets start past the head of its bytes as a scanner's view of a later
// batch does: "ab", "", "日本", "é", "".
func arena() *Vector {
	return &Vector{Kind: vtypes.KindStr, Off: []uint32{2, 4, 4, 10, 12, 12}, Shared: &Shared{Bytes: []byte("xxab日本é")}}
}

var arenaRows = []string{"ab", "", "日本", "é", ""}

// TestArenaReadsThrough: an arena's length is its offsets' less one, and
// Get, StrAt, CopyFrom and GatherFrom read each row out of its bytes.
func TestArenaReadsThrough(t *testing.T) {
	v := arena()
	if v.Len() != 5 || (&Batch{Vecs: []*Vector{v}}).Capacity() != 5 || !v.Packed() {
		t.Fatalf("arena of 5 rows has Len %d", v.Len())
	}
	for i, want := range arenaRows {
		if v.StrAt(i) != want || v.Get(i).Str != want {
			t.Fatalf("row %d reads %q and %v, want %q", i, v.StrAt(i), v.Get(i), want)
		}
	}
	dst := New(vtypes.KindStr, 5)
	dst.CopyFrom(v, 1, 0, 4)
	if got := fmt.Sprintf("%q", dst.Str[:4]); got != `["" "日本" "é" ""]` {
		t.Fatalf("CopyFrom rows 1..4: %s", got)
	}
	dst.GatherFrom(v, []int32{4, 2, 0, 3})
	if got := fmt.Sprintf("%q", dst.Str[:4]); got != `["" "日本" "ab" "é"]` {
		t.Fatalf("GatherFrom rows 4, 2, 0 and 3: %s", got)
	}
}

// TestArenaViews: a row read out of an arena is a view of its bytes, not
// a copy, and reading one allocates nothing.
func TestArenaViews(t *testing.T) {
	v := arena()
	if s := v.StrAt(2); unsafe.StringData(s) != &v.Shared.Bytes[4] {
		t.Fatal("StrAt copied the row")
	}
	dst := New(vtypes.KindStr, 5)
	sel := []int32{0, 2, 3}
	var buf Vector
	buf.FillFrom(v, sel, 3)
	if allocs := testing.AllocsPerRun(100, func() {
		_ = v.StrAt(3)
		dst.CopyFrom(v, 0, 0, 5)
		dst.GatherFrom(v, sel)
		buf.FillFrom(v, sel, 3)
	}); allocs != 0 {
		t.Fatalf("reading an arena allocates %.0f times", allocs)
	}
	if unsafe.StringData(dst.Str[1]) != &v.Shared.Bytes[4] || unsafe.StringData(buf.Str[3]) != &v.Shared.Bytes[10] {
		t.Fatal("GatherFrom or FillFrom copied a row")
	}
}

// TestFillFromArena: an arena's live rows are filled into the caller's
// buffer, which holds no arena, reaches the last live row and shares the
// null indicator.
func TestFillFromArena(t *testing.T) {
	var buf Vector
	v := arena()
	v.Nulls = []bool{false, false, true, false, false}
	got := buf.FillFrom(v, []int32{2, 4}, 2)
	if got != &buf || got.Off != nil || len(got.Str) != 5 || got.Str[2] != "日本" || got.Str[4] != "" || &got.Nulls[0] != &v.Nulls[0] {
		t.Fatalf("FillFrom of rows 2 and 4: %q nulls %v", got.Str, got.Nulls)
	}
	if got = buf.FillFrom(arena(), nil, 5); fmt.Sprintf("%q", got.Str) != `["ab" "" "日本" "é" ""]` || got.Nulls != nil {
		t.Fatalf("dense FillFrom: %q", got.Str)
	}
}

// TestWritesDropArena: every writer leaves a vector without an arena,
// since the slots it writes hold their own strings.
func TestWritesDropArena(t *testing.T) {
	for name, write := range map[string]func(v *Vector){
		"Set":        func(v *Vector) { v.Set(1, vtypes.StrValue("X")) },
		"CopyFrom":   func(v *Vector) { v.CopyFrom(arena(), 0, 1, 2) },
		"GatherFrom": func(v *Vector) { v.GatherFrom(arena(), []int32{3}) },
	} {
		v := New(vtypes.KindStr, 4)
		v.Off, v.Shared = []uint32{0, 1, 1, 1, 1}, &Shared{Bytes: []byte("N")}
		write(v)
		if v.Off != nil || v.Shared != nil || v.Packed() {
			t.Errorf("%s left an arena %v over %+v", name, v.Off, v.Shared)
		}
	}
}

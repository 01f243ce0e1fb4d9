package vector

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/compress"
	"vectorwise/internal/vtypes"
)

// fsstRows are an FSST arena's rows: empty, escaped bytes and rows that
// span symbols.
var fsstRows = []string{"special", "", "requests special", "\xffspec", "ial", "x"}

// fsstVector returns an FSST arena of fsstRows over the symbols "spec",
// "ial", " " and "requests".
func fsstVector(t *testing.T) *Vector {
	t.Helper()
	syms := []string{"spec", "ial", " ", "requests"}
	chunk := append([]byte{byte(compress.CodecFSST), 0, 0, 0}, binary.LittleEndian.AppendUint32(nil, 0)...)
	chunk = append(chunk, byte(len(syms)))
	for _, s := range syms {
		chunk = append(chunk, byte(len(s)))
	}
	for _, s := range syms {
		chunk = append(chunk, s...)
	}
	_, _, sym, err := compress.DecompressStrArena(chunk)
	if err != nil {
		t.Fatal(err)
	}
	sh := &Shared{Symbols: sym}
	off := []uint32{0}
	for _, s := range fsstRows {
		sh.Bytes = sym.Encode(sh.Bytes, s)
		off = append(off, uint32(len(sh.Bytes)))
	}
	return &Vector{Kind: vtypes.KindStr, Off: off, Shared: sh}
}

// TestFSSTArenaReadsThrough: an FSST arena's rows read as the strings they
// code through Get, StrAt, CopyFrom and FillFrom, and every read decodes
// into a buffer of its own: strings a reader keeps from one read (as a MIN
// does across batches) are not written by the next. GatherFrom copies the
// rows' codes instead (TestFSSTGatherOwnsCodes).
func TestFSSTArenaReadsThrough(t *testing.T) {
	v := fsstVector(t)
	if v.Len() != len(fsstRows) || !v.Packed() {
		t.Fatalf("arena of %d rows has Len %d", len(fsstRows), v.Len())
	}
	for i, want := range fsstRows {
		if v.StrAt(i) != want || v.Get(i).Str != want {
			t.Fatalf("row %d reads %q and %v, want %q", i, v.StrAt(i), v.Get(i), want)
		}
	}
	first := New(vtypes.KindStr, 3)
	first.CopyFrom(v, 0, 0, 3)
	kept := fmt.Sprintf("%q", first.Str)
	second := New(vtypes.KindStr, 3)
	second.CopyFrom(v, 3, 0, 3)
	second.CopyFrom(v, 5, 0, 1)
	second.CopyFrom(v, 2, 1, 1)
	var buf Vector
	filled := buf.FillFrom(v, []int32{0, 2}, 2)
	keptFill := filled.Str[2]
	buf.FillFrom(v, []int32{2, 3}, 2)
	if got := fmt.Sprintf("%q", first.Str); got != kept || kept != `["special" "" "requests special"]` {
		t.Fatalf("rows 0..2 copied %s, read %s after later reads", kept, got)
	}
	if got := fmt.Sprintf("%q", second.Str); got != `["x" "requests special" "x"]` {
		t.Fatalf("CopyFrom rows 3..5, then 5 and 2 over the first two: %s", got)
	}
	if keptFill != "requests special" || buf.Str[3] != "\xffspec" || buf.Str[0] != "special" {
		t.Fatalf("FillFrom: kept %q, then %q", keptFill, buf.Str)
	}
	d := make([]string, 2)
	CompactArena(d, v.Off[3:], v.Shared, nil)
	if d[0] != "\xffspec" || d[1] != "ial" {
		t.Fatalf("CompactArena of rows 3 and 4: %q", d)
	}
}

// TestFSSTGatherOwnsCodes: GatherFrom and NewCopy of an FSST arena make an
// FSST arena under the source's symbol table whose codes are the
// destination's own: rewriting the source's bytes changes nothing. A
// gather keeps the destination's slots and reuses its bytes, and a later
// write takes its strings back.
func TestFSSTGatherOwnsCodes(t *testing.T) {
	v := fsstVector(t)
	v.Nulls = []bool{false, true, false, false, false, false}
	dst := New(vtypes.KindStr, 4)
	dst.GatherFrom(v, []int32{5, 2, 3})
	cp := NewCopy(v, []int32{0, 1, 2}, 3)
	dense := NewCopy(v, nil, 6)
	if !dst.FSST() || dst.Shared.Symbols != v.Shared.Symbols || dst.Len() != 4 || !cp.FSST() || cp.Len() != 3 || dense.Len() != 6 {
		t.Fatalf("gather: FSST %v, Len %d; copy: FSST %v, Len %d", dst.FSST(), dst.Len(), cp.FSST(), cp.Len())
	}
	bytes := dst.Shared.Bytes
	clear(v.Shared.Bytes) // a source whose owner writes its bytes again
	read := func(w *Vector) string {
		var out []string
		for i := range w.Len() {
			if w.Nulls != nil && w.Nulls[i] {
				out = append(out, "NULL")
			} else {
				out = append(out, fmt.Sprintf("%q", w.StrAt(i)))
			}
		}
		return strings.Join(out, " ")
	}
	if got := read(dst); got != `"x" "requests special" "\xffspec" ""` {
		t.Fatalf("GatherFrom rows 5, 2, 3 into 4 slots: %s", got)
	}
	if got := read(cp); got != `"special" NULL "requests special"` {
		t.Fatalf("NewCopy rows 0..2: %s", got)
	}
	if got := read(dense); got != `"special" NULL "requests special" "\xffspec" "ial" "x"` {
		t.Fatalf("NewCopy of every row: %s", got)
	}
	v = fsstVector(t)
	dst.GatherFrom(v, []int32{0})
	if &dst.Shared.Bytes[0] != &bytes[0] || dst.Len() != 4 || dst.StrAt(0) != "special" || dst.StrAt(1) != "" {
		t.Fatalf("a second gather: Len %d, rows %q %q, bytes reused %v", dst.Len(), dst.StrAt(0), dst.StrAt(1), &dst.Shared.Bytes[0] == &bytes[0])
	}
	dst.Set(2, vtypes.StrValue("set"))
	if dst.Packed() || len(dst.Str) != 4 || dst.Str[2] != "set" {
		t.Fatalf("a write after a gather: packed %v, Str %q", dst.Packed(), dst.Str)
	}
}

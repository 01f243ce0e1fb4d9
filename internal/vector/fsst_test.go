package vector

import (
	"encoding/binary"
	"fmt"
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
// code through Get, StrAt, CopyFrom, GatherFrom and FillFrom, and every
// read decodes into a buffer of its own: strings a reader keeps from one
// read (as a colBuf or a MIN does across batches) are not written by the
// next.
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
	second.GatherFrom(v, []int32{5, 2, 3})
	var buf Vector
	filled := buf.FillFrom(v, []int32{0, 2}, 2)
	keptFill := filled.Str[2]
	buf.FillFrom(v, []int32{2, 3}, 2)
	if got := fmt.Sprintf("%q", first.Str); got != kept || kept != `["special" "" "requests special"]` {
		t.Fatalf("rows 0..2 copied %s, read %s after later reads", kept, got)
	}
	if got := fmt.Sprintf("%q", second.Str); got != `["x" "requests special" "\xffspec"]` {
		t.Fatalf("GatherFrom rows 5, 2 and 3: %s", got)
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

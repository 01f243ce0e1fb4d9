package bufmgr

import (
	"fmt"
	"testing"

	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// TestFSSTChunksAccountCodes: an FSST VARCHAR chunk is cached as an arena
// over its codes with its symbol table, no string per row, and charged its
// codes, 4 bytes an offset and its table once: far less than its decoded
// text, which the pool never holds.
func TestFSSTChunksAccountCodes(t *testing.T) {
	const rows = 1000
	words := []string{"furiously", "special", "requests", "carefully", "ironic", "deposits", "even", "bold"}
	schema := vtypes.NewSchema(vtypes.Column{Name: "c", Kind: vtypes.KindStr})
	b := storage.NewBuilder("t", schema, rows)
	text := 0
	for i := range rows {
		s := fmt.Sprintf("%s %s %s %d", words[i%8], words[i/8%8], words[i/64%8], i)
		text += len(s)
		if err := b.AppendRow(vtypes.Row{vtypes.StrValue(s)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := New(0)
	v, err := m.FetchColumn(tbl, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sym := v.Shared.Symbols
	if v.Str != nil || v.Off == nil || sym == nil {
		t.Fatalf("not cached as an FSST arena: %d strings, offsets %v, table %v", len(v.Str), v.Off != nil, sym != nil)
	}
	want := int64(len(v.Shared.Bytes) + 4*(rows+1) + sym.Size())
	if got := m.CachedBytes(); got != want || 2*got > int64(text) {
		t.Fatalf("a chunk of %d codes and %d bytes of text charged %d bytes, want %d", len(v.Shared.Bytes), text, got, want)
	}
}

package catalog

import (
	"testing"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

func buildTable(t *testing.T, name string, n int) *storage.Table {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64},
		vtypes.Column{Name: "f", Kind: vtypes.KindF64},
		vtypes.Column{Name: "s", Kind: vtypes.KindStr},
		vtypes.Column{Name: "b", Kind: vtypes.KindBool},
	)
	b := storage.NewBuilder(name, schema, 256)
	words := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		if err := b.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)),
			vtypes.F64Value(float64(i) / 2),
			vtypes.StrValue(words[i%3]),
			vtypes.BoolValue(i%2 == 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCatalogCRUD(t *testing.T) {
	c := New()
	tbl := buildTable(t, "a", 10)
	c.Put(tbl)
	c.Put(buildTable(t, "b", 5))

	if names := c.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names: %v", names)
	}
	got, layers, err := c.Resolve("a")
	if err != nil || got != tbl || layers != nil {
		t.Fatal("resolve wrong")
	}
	if _, err := c.Get("missing"); err == nil {
		t.Fatal("missing table must error")
	}
	p := pdt.New(tbl.Schema(), tbl.Rows())
	if err := c.SetLayers("a", []*pdt.PDT{p}); err != nil {
		t.Fatal(err)
	}
	_, layers, _ = c.Resolve("a")
	if len(layers) != 1 {
		t.Fatal("layers not installed")
	}
	if err := c.SetLayers("missing", nil); err == nil {
		t.Fatal("SetLayers on missing table must error")
	}
}

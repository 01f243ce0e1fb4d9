package vectorwise_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	vectorwise "vectorwise"
	"vectorwise/internal/compress"
	"vectorwise/internal/storage"
	"vectorwise/internal/testutil"
	"vectorwise/internal/tpch"
	"vectorwise/internal/tpchdb"
	"vectorwise/internal/vtypes"
)

// TestScansLeaveImagesUnwritten: a plain BIGINT or DOUBLE chunk decodes
// to a view of the table image (storage.Table.DecodeChunk), so an
// operator writing to a scanned vector would write the image. The TPC-H
// suite runs at parallelism 1 and 2 and vector sizes 1, 3 and 1024 over
// the stable images, over Mod, Del and Ins deltas (a MergeScan), and
// over the image a mover rebuild makes; every answer agrees with the
// first run of its stage, and every image saves to the same bytes at the
// end as when it was installed.
func TestScansLeaveImagesUnwritten(t *testing.T) {
	db := vectorwise.OpenMemory()
	defer db.Close()
	if _, err := tpchdb.Load(db, 0.01); err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog()
	path := filepath.Join(t.TempDir(), "image.vwt")
	hash := func(tbl *storage.Table) [sha256.Size]byte {
		if err := tbl.Save(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b)
	}
	images := map[*storage.Table][sha256.Size]byte{}
	views := 0
	record := func() {
		for _, name := range cat.Names() {
			ent, err := cat.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := images[ent.Table]; ok {
				continue
			}
			images[ent.Table] = hash(ent.Table)
			for _, g := range ent.Table.Meta.Groups {
				for _, cm := range g.Cols {
					if cm.Codec == compress.CodecPlainF64 || cm.Codec == compress.CodecPlainI64 {
						views++
					}
				}
			}
		}
	}
	suite := func(stage string) map[string][]vtypes.Row {
		first := map[string][]vtypes.Row{}
		for _, par := range []int{1, 2} {
			for _, vecSize := range []int{1, 3, 1024} {
				opts := tpch.RunOptions{Parallel: par, VecSize: vecSize, Fetch: db.BufferManager()}
				for _, q := range tpch.SQLSuite() {
					rows, _, err := tpch.RunQuery(cat, q, opts)
					if err != nil {
						t.Fatalf("%s %s parallel %d vector %d: %v", stage, q.Name, par, vecSize, err)
					}
					if want, ok := first[q.Name]; !ok {
						first[q.Name] = rows
					} else if err := testutil.SameRows(fmt.Sprintf("%s %s parallel %d vector %d", stage, q.Name, par, vecSize), want, rows); err != nil {
						t.Error(err)
					}
				}
			}
		}
		return first
	}

	record()
	if views == 0 {
		t.Fatal("no plain BIGINT or DOUBLE chunk: nothing decodes to a view")
	}
	stable := suite("stable")
	for _, stmt := range []string{
		`UPDATE lineitem SET l_extendedprice = l_extendedprice * 2, l_quantity = l_quantity + 1 WHERE l_orderkey < 400`,
		`UPDATE orders SET o_totalprice = o_totalprice + 1 WHERE o_orderkey < 400`,
		`UPDATE customer SET c_acctbal = c_acctbal - 1 WHERE c_custkey < 40`,
		`DELETE FROM lineitem WHERE l_orderkey BETWEEN 1000 AND 1100`,
		`INSERT INTO lineitem VALUES (999999, 1, 1, 1, 13.0, 14000.0, 0.05, 0.02, 'N', 'O', DATE '1996-01-01', DATE '1996-01-05', DATE '1996-01-10', 'NONE', 'AIR', 'inserted row')`,
		`INSERT INTO orders VALUES (999999, 1, 'F', 1.0, DATE '1995-06-01', '1-URGENT', 'clerk', 7, 'inserted row')`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
	}
	deltas := suite("deltas")
	if testutil.SameRows("Q1", stable["Q1"], deltas["Q1"]) == nil {
		t.Fatal("Q1 reads the same over the deltas: the scans merged none")
	}
	for _, name := range []string{"lineitem", "orders", "customer"} {
		if err := db.Checkpoint(name); err != nil {
			t.Fatal(err)
		}
	}
	record()
	for q, rows := range suite("rebuilt") {
		if err := testutil.SameRows("rebuilt vs deltas "+q, deltas[q], rows); err != nil {
			t.Error(err)
		}
	}
	if len(images) != len(cat.Names())+3 {
		t.Fatalf("%d images hashed, want the %d tables' and 3 rebuilt ones", len(images), len(cat.Names()))
	}
	for tbl, want := range images {
		if hash(tbl) != want {
			t.Errorf("table %s: the image was written after it was installed", tbl.Meta.Name)
		}
	}
}

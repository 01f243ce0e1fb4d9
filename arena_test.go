package vectorwise

import (
	"context"
	"fmt"
	"testing"
	"unsafe"

	"vectorwise/internal/vtypes"
)

// arenaTestDB loads t(k BIGINT, s VARCHAR) with 3 000 distinct s, some
// empty and some multibyte, so every s chunk is plain and scans as an
// arena over the table image.
func arenaTestDB(t *testing.T) (*DB, []string) {
	t.Helper()
	db := OpenMemory()
	if _, err := db.Exec(`CREATE TABLE t (k BIGINT, s VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	ks, ss := make([]int64, 3000), make([]string, 3000)
	for i := range ks {
		ks[i], ss[i] = int64(i), fmt.Sprintf("row %d é", i)
		if i%9 == 0 {
			ss[i] = ""
		}
	}
	if _, err := db.LoadBatch("t", []any{ks, ss}, nil); err != nil {
		t.Fatal(err)
	}
	return db, ss
}

// TestArenaStringsLeaveAsCopies: a string that reaches a caller of the
// public API — through Rows.Scan, the Str that Rows.NextBatch fills, or
// DB.Query's rows — is a copy of the row, never a view of the table image
// that an arena reads through, which it would keep alive. The engine's
// own batches (NextCodedBatch) hand the views on.
func TestArenaStringsLeaveAsCopies(t *testing.T) {
	db, ss := arenaTestDB(t)
	const q = `SELECT k, s FROM t WHERE k < 40 OR k >= 2990`
	views := map[int64]*byte{} // each non-empty row's bytes in the image
	rows, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, err := rows.NextCodedBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Vecs[1].Off == nil {
			t.Fatal("the scan did not hand on an arena")
		}
		for r := range b.N {
			i := b.LiveIndex(r)
			if s := b.Vecs[1].StrAt(i); s != "" {
				views[b.Vecs[0].I64[i]] = unsafe.StringData(s)
			}
		}
	}
	if len(views) != 44 {
		t.Fatalf("%d non-empty rows viewed, want 44", len(views))
	}
	check := func(how string, k int64, s string) {
		t.Helper()
		if s != ss[k] {
			t.Fatalf("%s: k=%d reads %q, want %q", how, k, s, ss[k])
		}
		if p, ok := views[k]; ok && unsafe.StringData(s) == p {
			t.Fatalf("%s: k=%d is a view of the table image, not a copy", how, k)
		}
	}

	rows, err = db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		b, err := rows.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if s := b.Vecs[1]; s.Off != nil || s.Str == nil {
			t.Fatal("NextBatch handed out an arena, not filled strings")
		}
		for r := range b.N {
			i := b.LiveIndex(r)
			check("NextBatch", b.Vecs[0].I64[i], b.Vecs[1].Str[i])
			seen++
		}
	}

	rows, err = db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		var k int64
		var s string
		var a any
		var v vtypes.Value
		for _, dest := range []any{&s, &a, &v} {
			if err := rows.Scan(&k, dest); err != nil {
				t.Fatal(err)
			}
		}
		check("Scan *string", k, s)
		check("Scan *any", k, a.(string))
		check("Scan *vtypes.Value", k, v.Str)
		seen++
	}

	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		check("Query", row[0].I64, row[1].Str)
		seen++
	}
	if seen != 3*50 {
		t.Fatalf("%d rows read, want %d", seen, 3*50)
	}
}

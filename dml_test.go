package vectorwise

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// dmlRow is the driver-side image of one row of the differential table
// t(k BIGINT, a BIGINT, b BIGINT, n BIGINT NULL, s VARCHAR); k is the
// unique clustered key.
type dmlRow struct {
	a, b  int64
	n     int64
	nNull bool
	s     string
}

// dmlStmt is one generated statement: its SQL text and arguments, the
// predicate it applies (nil for INSERT), and its effect on a matching
// model row (nil deletes the row).
type dmlStmt struct {
	sql   string
	args  []any
	match func(k int64, r dmlRow) bool
	set   func(k int64, r dmlRow) dmlRow
}

// genDML draws one UPDATE or DELETE. Predicates cover: point and range on
// the clustered key (sargable, prunes), a column-vs-column residual, a
// nullable column, and a column the SET list also assigns — each bounded
// to a key range or, for UPDATE only, over the whole table.
func genDML(rng *rand.Rand, maxKey int64) dmlStmt {
	var st dmlStmt
	var where string
	x, w, v := rng.Int63n(maxKey), rng.Int63n(32), rng.Int63n(100)
	del := rng.Intn(4) == 0
	kind := rng.Intn(8)
	if del {
		kind %= 5 // deletes stay narrow so the table survives the run
	}
	inRange := func(k int64) bool { return k >= x && k <= x+4*w }
	switch kind {
	case 0:
		where, st.args = `k = ?`, []any{x}
		st.match = func(k int64, _ dmlRow) bool { return k == x }
	case 1:
		where, st.args = `k BETWEEN ? AND ?`, []any{x, x + w}
		st.match = func(k int64, _ dmlRow) bool { return k >= x && k <= x+w }
	case 2:
		where, st.args = `k BETWEEN ? AND ? AND a < b`, []any{x, x + 4*w}
		st.match = func(k int64, r dmlRow) bool { return inRange(k) && r.a < r.b }
	case 3:
		where, st.args = `n IS NULL AND k >= ? AND k <= ?`, []any{x, x + 4*w}
		st.match = func(k int64, r dmlRow) bool { return inRange(k) && r.nNull }
	case 4:
		where, st.args = `a > ? AND k BETWEEN ? AND ?`, []any{v, x, x + 4*w}
		st.match = func(k int64, r dmlRow) bool { return inRange(k) && r.a > v }
	case 5:
		where = `b < a`
		st.match = func(_ int64, r dmlRow) bool { return r.b < r.a }
	case 6:
		where, st.args = `n > ?`, []any{v}
		st.match = func(_ int64, r dmlRow) bool { return !r.nNull && r.n > v }
	case 7:
		where, st.args = `a >= ? OR k = ?`, []any{v, x}
		st.match = func(k int64, r dmlRow) bool { return r.a >= v || k == x }
	}
	if del {
		st.sql = `DELETE FROM t WHERE ` + where
		return st
	}
	var set string
	z := rng.Int63n(1000)
	switch rng.Intn(5) {
	case 0:
		set = `a = a + 1`
		st.set = func(_ int64, r dmlRow) dmlRow { r.a++; return r }
	case 1:
		set = `a = b, b = a`
		st.set = func(_ int64, r dmlRow) dmlRow { r.a, r.b = r.b, r.a; return r }
	case 2:
		set = `n = NULL, s = 'nulled'`
		st.set = func(_ int64, r dmlRow) dmlRow { r.n, r.nNull, r.s = 0, true, "nulled"; return r }
	case 3:
		set = fmt.Sprintf(`n = k + %d, b = a * 2`, z)
		st.set = func(k int64, r dmlRow) dmlRow { r.n, r.nNull, r.b = k+z, false, r.a*2; return r }
	case 4:
		// SET precedes WHERE, so its placeholder binds first.
		set = `s = ?`
		v := fmt.Sprintf("s%d", z)
		st.args = append([]any{v}, st.args...)
		st.set = func(_ int64, r dmlRow) dmlRow { r.s = v; return r }
	}
	st.sql = `UPDATE t SET ` + set + ` WHERE ` + where
	return st
}

// checkDMLModel compares the engine's full table contents with the model.
func checkDMLModel(t *testing.T, db *DB, model map[int64]dmlRow, label string) {
	t.Helper()
	res, err := db.Query(`SELECT k, a, b, n, s FROM t ORDER BY k`)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	keys := make([]int64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(res.Rows) != len(keys) {
		t.Fatalf("%s: engine has %d rows, model %d", label, len(res.Rows), len(keys))
	}
	for i, k := range keys {
		got, want := res.Rows[i], model[k]
		ok := got[0].I64 == k && got[1].I64 == want.a && got[2].I64 == want.b &&
			got[3].Null == want.nNull && (want.nNull || got[3].I64 == want.n) && got[4].Str == want.s
		if !ok {
			t.Fatalf("%s: row %d: engine %v, model k=%d %+v", label, i, got, k, want)
		}
	}
}

// TestDMLDifferential drives seeded random UPDATE/DELETE/INSERT
// statements against a driver-side model through every storage state a
// write can qualify over — a clean stable image, a stack of live tail
// layers, a mover-folded big PDT, a checkpointed image — asserting the
// affected count and the whole table after every statement, with data
// skipping on and off.
func TestDMLDifferential(t *testing.T) {
	for _, skipping := range []bool{true, false} {
		t.Run(fmt.Sprintf("skipping=%v", skipping), func(t *testing.T) {
			const rows, groupRows = 2000, 128
			rng := rand.New(rand.NewSource(13))
			schema := vtypes.NewSchema(
				vtypes.Column{Name: "k", Kind: vtypes.KindI64},
				vtypes.Column{Name: "a", Kind: vtypes.KindI64},
				vtypes.Column{Name: "b", Kind: vtypes.KindI64},
				vtypes.Column{Name: "n", Kind: vtypes.KindI64, Nullable: true},
				vtypes.Column{Name: "s", Kind: vtypes.KindStr},
			)
			b := storage.NewBuilder("t", schema, groupRows)
			model := make(map[int64]dmlRow, rows)
			for k := int64(0); k < rows; k++ {
				r := dmlRow{a: rng.Int63n(100), b: rng.Int63n(100), n: rng.Int63n(100), nNull: rng.Intn(5) == 0, s: "init"}
				n := vtypes.I64Value(r.n)
				if r.nNull {
					r.n, n = 0, vtypes.NullValue(vtypes.KindI64)
				}
				if err := b.AppendRow(vtypes.Row{vtypes.I64Value(k), vtypes.I64Value(r.a), vtypes.I64Value(r.b), n, vtypes.StrValue(r.s)}); err != nil {
					t.Fatal(err)
				}
				model[k] = r
			}
			tbl, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			db := OpenMemory()
			defer db.Close()
			db.SetParallelism(1)
			db.SetMoverThreshold(0) // MoveTuples folds, never rebuilds
			db.RegisterTable(tbl)
			db.SetDataSkipping(skipping)

			nextKey := int64(rows)
			run := func(phase string, stmts int) {
				hits := 0
				for i := 0; i < stmts; i++ {
					label := fmt.Sprintf("%s #%d", phase, i)
					if rng.Intn(5) == 0 {
						r := dmlRow{a: rng.Int63n(100), b: rng.Int63n(100), nNull: true, s: "ins"}
						if n, err := db.ExecArgs(`INSERT INTO t VALUES (?, ?, ?, NULL, 'ins')`, nextKey, r.a, r.b); err != nil || n != 1 {
							t.Fatalf("%s: insert: n=%d err=%v", label, n, err)
						}
						model[nextKey] = r
						nextKey++
						continue
					}
					st := genDML(rng, nextKey)
					label += ": " + st.sql + fmt.Sprint(st.args)
					var want int64
					for k, r := range model {
						if !st.match(k, r) {
							continue
						}
						want++
						if st.set == nil {
							delete(model, k)
						} else {
							model[k] = st.set(k, r)
						}
					}
					got, err := db.ExecArgs(st.sql, st.args...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got != want {
						t.Fatalf("%s: affected %d rows, model %d", label, got, want)
					}
					if got > 0 {
						hits++
					}
					checkDMLModel(t, db, model, label)
				}
				if hits < stmts/4 {
					t.Fatalf("%s: only %d of %d statements matched a row", phase, hits, stmts)
				}
			}
			run("clean stable, then tail layers", 40)
			if err := db.MoveTuples(); err != nil {
				t.Fatal(err)
			}
			run("after fold", 40)
			if err := db.Checkpoint("t"); err != nil {
				t.Fatal(err)
			}
			run("after checkpoint", 40)
		})
	}
}

// TestDeleteWithOrBelowAFilter: on t(k 0..19, g = k % 5), DELETE … WHERE
// k >= 4 AND (g = 3 OR g = 1) and its NOT twin qualify the OR over a batch
// the pushed scan filter has already narrowed. The old OR re-installed a
// selection its first disjunct had overwritten: it reported 8 rows,
// removed 5, 10, 14 and 17 and kept 6 and 13.
func TestDeleteWithOrBelowAFilter(t *testing.T) {
	for _, c := range []struct {
		where string
		n     int64
		left  string
	}{
		{"k >= 4 AND (g = 3 OR g = 1)", 6, "[0 1 2 3 4 5 7 9 10 12 14 15 17 19]"},
		{"k >= 4 AND NOT (g = 3 OR g = 1)", 10, "[0 1 2 3 6 8 11 13 16 18]"},
		{"k + 0 >= 4 AND (g = 3 OR g = 1)", 6, "[0 1 2 3 4 5 7 9 10 12 14 15 17 19]"},
	} {
		db := OpenMemory()
		if _, err := db.Exec(`CREATE TABLE t (k BIGINT, g BIGINT)`); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20; k++ {
			if _, err := db.ExecArgs(`INSERT INTO t VALUES (?, ?)`, k, k%5); err != nil {
				t.Fatal(err)
			}
		}
		n, err := db.Exec(`DELETE FROM t WHERE ` + c.where)
		if err != nil || n != c.n {
			t.Fatalf("DELETE WHERE %s: %d rows (%v), want %d", c.where, n, err, c.n)
		}
		res, err := db.Query(`SELECT k FROM t ORDER BY k`)
		if err != nil {
			t.Fatal(err)
		}
		var left []int64
		for _, r := range res.Rows {
			left = append(left, r[0].I64)
		}
		if got := fmt.Sprint(left); got != c.left {
			t.Fatalf("DELETE WHERE %s left %s, want %s", c.where, got, c.left)
		}
		db.Close()
	}
}

// TestNotNullRefusedAtEveryWrite: a NULL into a column not declared NULL
// is refused by INSERT (literal, parameter, one row of several), UPDATE
// and LoadBatch with a *vtypes.NotNullError
// naming the table and column, and by CopyFrom as a parse error; each
// leaves the table as it was, so it still checkpoints. A column declared
// NULL takes NULL.
func TestNotNullRefusedAtEveryWrite(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE u (k BIGINT, v BIGINT, w BIGINT NULL)`)
	mustExec(t, db, `INSERT INTO u VALUES (1, 1, 1), (2, 2, NULL)`)
	refused := func(what string, err error) {
		t.Helper()
		var nn *vtypes.NotNullError
		if !errors.As(err, &nn) || nn.Table != "u" || nn.Column != "v" {
			t.Errorf("%s: got %v, want a NOT NULL error on u.v", what, err)
		}
	}
	_, err := db.Exec(`INSERT INTO u VALUES (3, NULL, 3)`)
	refused("INSERT", err)
	_, err = db.Exec(`INSERT INTO u VALUES (4, 4, 4), (5, NULL, 5)`)
	refused("INSERT of two rows", err)
	_, err = db.ExecArgs(`INSERT INTO u VALUES (?, ?, ?)`, 6, nil, 6)
	refused("prepared INSERT", err)
	_, err = db.Exec(`UPDATE u SET v = NULL WHERE k = 2`)
	refused("UPDATE", err)
	_, err = db.LoadBatch("u", []any{[]int64{7}, []int64{0}, []int64{7}}, [][]bool{nil, {true}, nil})
	refused("LoadBatch", err)
	if _, err = db.CopyFrom("u", strings.NewReader("8,,8\n"), CopyOptions{}); err == nil {
		t.Error("CopyFrom took an empty field for a BIGINT NOT NULL")
	}

	res, err := db.Query(`SELECT k, v FROM u ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[1 1] [2 2]]" {
		t.Fatalf("rows after the refused writes: %s", got)
	}
	if err := db.Checkpoint("u"); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	mustExec(t, db, `UPDATE u SET w = NULL WHERE k = 1`)
	mustExec(t, db, `INSERT INTO u VALUES (9, 9, NULL)`)
	if n := count(t, db, "u WHERE w IS NULL"); n != 3 {
		t.Fatalf("%d rows with w NULL, want 3", n)
	}
}

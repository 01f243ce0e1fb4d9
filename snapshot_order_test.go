package vectorwise

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"vectorwise/internal/testutil"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
)

// TestOrderFollowsCommits: whether a scan's key arrives in order is
// decided at every execution from the snapshot it reads, so a prepared
// statement whose plan stays cached merges and groups by runs while the
// order holds and falls back to the hash table the moment a commit breaks
// it. Each case commits one change to a freshly loaded pair of tables
// clustered on their key, then lets the mover fold it into a new image,
// whose builder decides the order afresh. At every step two prepared
// statements — Q18's shape (a semi join on a grouped subquery, then a
// join, on the key) and agg_hicard's (one group per key) — must answer as
// the tuple engine does, at parallelism 1 and 2.
func TestOrderFollowsCommits(t *testing.T) {
	const orders = 27000 // 67 500 lines: two row groups
	q18 := `SELECT o_k, o_v, SUM(l_q) AS total FROM ord JOIN line ON o_k = l_k
		WHERE o_k IN (SELECT l_k FROM line GROUP BY l_k HAVING SUM(l_q) > %s)
		GROUP BY o_k, o_v ORDER BY total DESC, o_k LIMIT 20`
	hicard := `SELECT l_k, SUM(l_q) AS s, COUNT(*) AS n FROM line WHERE l_q > %s GROUP BY l_k ORDER BY l_k`
	for _, c := range []struct {
		commit             string
		ordered, afterFold bool
	}{
		{`DELETE FROM line WHERE l_k = 7 OR l_k = 20001`, true, true},
		{`UPDATE line SET l_q = 49 WHERE l_k = 11`, true, true}, // not the key
		{`INSERT INTO line VALUES (5, 40)`, false, false},       // out of order
		{`UPDATE line SET l_k = 3 WHERE l_k = 20000`, false, false},
		{`INSERT INTO line VALUES (99999, 40)`, false, true}, // in order once folded
	} {
		t.Run(c.commit, func(t *testing.T) {
			t.Parallel()
			db := OpenMemory()
			defer db.Close()
			mustExec(t, db, `CREATE TABLE ord (o_k BIGINT, o_v DOUBLE)`)
			mustExec(t, db, `CREATE TABLE line (l_k BIGINT, l_q BIGINT)`)
			ok, ov := make([]int64, orders), make([]float64, orders)
			var lk, lq []int64
			for o := range orders {
				ok[o], ov[o] = int64(o), float64(o%97)
				for l := range 1 + o%4 {
					lk, lq = append(lk, int64(o)), append(lq, int64((o*7+l*13)%50))
				}
			}
			for table, cols := range map[string][]any{"ord": {ok, ov}, "line": {lk, lq}} {
				if _, err := db.LoadBatch(table, cols, nil); err != nil {
					t.Fatal(err)
				}
			}
			stmts := map[string]*Stmt{}
			for _, q := range []string{q18, hicard} {
				s, err := db.Prepare(fmt.Sprintf(q, "?"))
				if err != nil {
					t.Fatal(err)
				}
				stmts[q] = s
			}
			check := func(step string, ordered bool) {
				t.Helper()
				for q, want := range map[string]string{q18: "merge", hicard: "runs"} {
					oracle := tupleRows(t, db, fmt.Sprintf(q, "25"))
					for _, par := range []int{1, 2} {
						db.SetParallelism(par)
						got, keys := drainStmt(t, stmts[q], int64(25))
						if err := testutil.SameRows(step, oracle, got); err != nil {
							t.Fatalf("parallelism %d: %v", par, err)
						}
						if slices.Contains(keys, want) != ordered {
							t.Fatalf("%s, parallelism %d: keys resolved by %v; want %q: %v", step, par, keys, want, ordered)
						}
					}
				}
			}
			check("loaded", true)
			mustExec(t, db, c.commit)
			check("committed", c.ordered)
			db.SetMoverThreshold(1) // rebuild the image from any delta
			if err := db.MoveTuples(); err != nil {
				t.Fatal(err)
			}
			image, layers, err := db.Catalog().Resolve("line")
			if err != nil {
				t.Fatal(err)
			}
			if image.Ordered(0) != c.afterFold || len(layers) > 0 {
				t.Fatalf("folded image: Ordered(l_k) = %v with %d delta layers, want %v and none",
					image.Ordered(0), len(layers), c.afterFold)
			}
			check("folded", c.afterFold)
		})
	}
}

// drainStmt runs a prepared statement and returns its rows and how each
// of its hash-keyed operators resolved keys.
func drainStmt(t *testing.T, s *Stmt, args ...any) ([]vtypes.Row, []string) {
	t.Helper()
	rows, err := s.QueryContext(context.Background(), args...)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out []vtypes.Row
	for {
		b, err := rows.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for i := range b.N {
			out = append(out, b.Row(i))
		}
	}
	var keys []string
	for _, h := range rows.HashStats() {
		keys = append(keys, h.Keys)
	}
	return out, keys
}

// tupleRows answers a statement on the tuple-at-a-time engine over the
// live catalog, deltas merged.
func tupleRows(t *testing.T, db *DB, text string) []vtypes.Row {
	t.Helper()
	rows, err := tupleengine.Run(planOf(t, db, text), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

package vectorwise

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// TestSnapshotReadLayerShared: cursors opened at one epoch share one
// snapshot, and every scan of a table in it — two plain cursors and
// both partitions of a parallelism-2 aggregate, compiled concurrently —
// resolves to the same read layer, folded once from the pinned stack.
// Run it under -race.
func TestSnapshotReadLayerShared(t *testing.T) {
	const rows = 2 * 65536 // two row groups, so the aggregate splits
	db := OpenMemory()
	defer db.Close()
	db.SetParallelism(2)
	mustExec(t, db, `CREATE TABLE t (k BIGINT, g BIGINT, v DOUBLE)`)
	k, g, v := make([]int64, rows), make([]int64, rows), make([]float64, rows)
	for i := range k {
		k[i], g[i], v[i] = int64(i), int64(i%8), 1
	}
	if _, err := db.LoadBatch("t", []any{k, g, v}, nil); err != nil {
		t.Fatal(err)
	}
	// Three one-row commits: three tail layers over an empty big PDT.
	mustExec(t, db, `UPDATE t SET v = 5 WHERE k = 3`)
	mustExec(t, db, `DELETE FROM t WHERE k = 70000`)
	mustExec(t, db, `INSERT INTO t VALUES (200000, 0, 7)`)
	if pin, err := db.txm.Pin("t"); err != nil || len(pin.Tail) != 3 {
		t.Fatalf("want 3 tail layers, have %v (%v)", pin, err)
	}
	const agg = `SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY g ORDER BY g`
	if plan, err := db.Explain(agg); err != nil || !strings.Contains(plan, "XchgUnion") {
		t.Fatalf("the aggregate must run in parallel (%v):\n%s", err, plan)
	}

	queries := []string{`SELECT k, v FROM t WHERE k < 10`, `SELECT k, v FROM t WHERE k > 131000`, agg}
	cursors := make([]*Rows, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cursors[i], errs[i] = db.QueryContext(context.Background(), q)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", queries[i], err)
		}
		defer cursors[i].Close()
	}
	snap := cursors[0].snap
	for i, c := range cursors {
		if c.snap != snap {
			t.Fatalf("cursor %d pinned another snapshot at the same epoch", i)
		}
	}
	read, err := snap.pins["t"].Combined()
	if err != nil {
		t.Fatal(err)
	}
	if _, layers, err := snap.Resolve("t"); err != nil || len(layers) != 1 || layers[0] != read {
		t.Fatalf("Resolve gives %d layers (%v), want the pin's one read layer", len(layers), err)
	}
	if again, _ := snap.pins["t"].Combined(); again != read {
		t.Fatal("the read layer was folded twice for one pin")
	}

	// The answers are those of the stack.
	var sum float64
	var n int64
	for cursors[2].Next() {
		var grp, cnt int64
		var s float64
		if err := cursors[2].Scan(&grp, &cnt, &s); err != nil {
			t.Fatal(err)
		}
		n += cnt
		sum += s
	}
	if err := cursors[2].Err(); err != nil {
		t.Fatal(err)
	}
	if n != rows || sum != rows+10 {
		t.Fatalf("aggregate over the read layer: %d rows summing to %v, want %d and %d", n, sum, rows, rows+10)
	}
	for _, c := range cursors[:2] {
		for c.Next() {
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

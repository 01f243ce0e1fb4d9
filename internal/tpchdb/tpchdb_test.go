package tpchdb

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/storage"
	"vectorwise/internal/testutil"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// The DB-level differential: a database populated purely through the
// public surface (DDL + LoadBatch) must answer every suite query through
// DB.Query — plan cache cold and warm, collected and streamed, at
// parallelism 1 and N — with the rows the bare harness (tpch.RunQuery:
// planner → serial vectorized engine, no cache, no snapshot pin) gets on
// the DB's own catalog. What those rows must be is pinned by
// internal/enginetest's golden file.
func TestSQLSuiteThroughDB(t *testing.T) {
	db := vectorwise.OpenMemory()
	db.SetParallelism(1)
	st, err := Load(db, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows < 10000 {
		t.Fatalf("suspiciously small load: %d rows", st.Rows)
	}
	for _, par := range []int{1, 4} {
		db.SetParallelism(par)
		for _, sq := range tpch.SQLSuite() {
			// The harness runs with the DB's own buffer manager so both
			// sides of the differential share one scan pipeline.
			want, _, err := tpch.RunQuery(db.Catalog(), sq,
				tpch.RunOptions{Engine: tpch.EngineVectorized, Fetch: db.BufferManager()})
			if err != nil {
				t.Fatalf("%s harness: %v", sq.Name, err)
			}
			for rep := 0; rep < 2; rep++ { // cold then plan-cache warm
				res, err := db.Query(sq.SQL)
				if err != nil {
					t.Fatalf("%s par=%d: %v", sq.Name, par, err)
				}
				testutil.MatchRows(t, sq.Name, want, res.Rows)
			}
			// The streaming cursor is the same execution path Query
			// collects from — pin it row-identical too.
			cursorRows, err := collectViaCursor(db, sq.SQL)
			if err != nil {
				t.Fatalf("%s cursor par=%d: %v", sq.Name, par, err)
			}
			testutil.MatchRows(t, sq.Name+" (cursor)", want, cursorRows)
		}
	}
	// The front end was actually amortized: repeated statements hit the
	// plan cache.
	if s := db.PlanCacheStats(); s.Hits == 0 {
		t.Fatalf("plan cache never hit: %+v", s)
	}
}

// TestLoadKeepsOrderkeyOrder: the generator writes orders and lineitem
// in orderkey order and the bulk load keeps it, so after Load both
// orderkey columns are Ordered (what merge joins and run-grouped
// aggregation key on) and the foreign keys beside them are not. At SF
// 0.02 lineitem spans two row groups, so the order crosses a boundary.
func TestLoadKeepsOrderkeyOrder(t *testing.T) {
	db := vectorwise.OpenMemory()
	defer db.Close()
	if _, err := Load(db, 0.02); err != nil {
		t.Fatal(err)
	}
	if li, err := db.Catalog().Get("lineitem"); err != nil || li.Table.Groups() < 2 {
		t.Fatalf("lineitem must span row groups (%v)", err)
	}
	for _, c := range []struct {
		table   string
		col     int
		ordered bool
	}{
		{"lineitem", tpch.LOrderKey, true},
		{"orders", tpch.OOrderKey, true},
		{"lineitem", tpch.LPartKey, false},
		{"orders", tpch.OCustKey, false},
	} {
		ent, err := db.Catalog().Get(c.table)
		if err != nil {
			t.Fatal(err)
		}
		if got := ent.Table.Ordered(c.col); got != c.ordered {
			t.Errorf("%s column %q: Ordered = %v, want %v", c.table, ent.Table.Meta.Cols[c.col].Name, got, c.ordered)
		}
	}
}

// TestLoadMatchesGenerate pins the one generator output behind both
// ingest routes. Load installs, table for table, the image tpch.Generate
// builds: the same Meta and the same saved bytes. And the generated
// values are the ones recorded when the generator still built boxed
// rows: a SHA-256 per table over its columns in schema order, each value
// in a fixed encoding independent of the storage format (BIGINT and DATE
// as 8 little-endian bytes, DOUBLE as its IEEE-754 bits the same way,
// VARCHAR as a 4-byte little-endian length and its bytes).
func TestLoadMatchesGenerate(t *testing.T) {
	const sf = 0.01
	db := vectorwise.OpenMemory()
	defer db.Close()
	if _, err := Load(db, sf); err != nil {
		t.Fatal(err)
	}
	cat, err := tpch.Generate(sf, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saved := func(tbl *storage.Table, file string) []byte {
		path := filepath.Join(dir, file)
		if err := tbl.Save(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, name := range cat.Names() {
		want, _, err := cat.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Table.Meta, want.Meta) {
			t.Errorf("%s: loaded Meta differs from the generated table's", name)
		}
		if !bytes.Equal(saved(got.Table, name+".db"), saved(want, name+".gen")) {
			t.Errorf("%s: loaded image saves to other bytes than the generated table", name)
		}
	}
	wantSHA := map[string]string{
		"customer": "b67667adda78f21e6ae9982052edd9719cd5337145d025db9be77b3c3edba75d",
		"lineitem": "e234afed68575ef8cc646aef47f7314690258fa6ec04b0be0b311c66d62dd22f",
		"nation":   "7945448487ad75c79be7ea6e58ddcad6f779db24b30c28a57adacb5a7fd0aebb",
		"orders":   "015fd8a8e7e962145b81f2730ef267b794c86d4f92dbbee374de51c6e785f8a7",
		"part":     "b5327ed849978be887ef413152fa7b5ec699febb38009fd1106173aef74fd9fb",
		"partsupp": "2da4426e9ca2d7d71f3cda19300c1cd4a3174c4112c05a2c956be84f3332bde6",
		"region":   "5ade7e2d002e34717fe3522d14363c84c39c73323a254e619a9443058910a959",
		"supplier": "a2605319e43acf87fcfbcba03c12ffea2bac1c050551452851a3d1ef972c3a19",
	}
	err = tpch.GenerateColumns(sf, func(name string, _ *vtypes.Schema, cols []any) error {
		h := sha256.New()
		var b [8]byte
		for _, col := range cols {
			switch s := col.(type) {
			case []int64:
				for _, v := range s {
					h.Write(binary.LittleEndian.AppendUint64(b[:0], uint64(v)))
				}
			case []float64:
				for _, v := range s {
					h.Write(binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(v)))
				}
			case []string:
				for _, v := range s {
					h.Write(binary.LittleEndian.AppendUint32(b[:0], uint32(len(v))))
					h.Write([]byte(v))
				}
			default:
				return fmt.Errorf("%s: unexpected column type %T", name, col)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != wantSHA[name] {
			t.Errorf("%s: values hash to %s, want %s", name, got, wantSHA[name])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The data-skipping differential: with live PDT deltas on the fact
// tables, every suite query must return row-identical results with
// min/max pruning forced on vs. off — the delta-aware prune path may
// only skip groups whose positions no delta touches, so the positional
// merge must survive the gaps. Runs at parallelism 1 and N so the
// partition-restricted merge path is covered too.
func TestSQLSuitePruningWithDeltas(t *testing.T) {
	db := vectorwise.OpenMemory()
	db.SetParallelism(1)
	if _, err := Load(db, 0.005); err != nil {
		t.Fatal(err)
	}
	// Deltas across the fact tables: modify, delete, and insert so the
	// master PDTs carry every entry type during the sweep.
	for _, stmt := range []string{
		`UPDATE lineitem SET l_quantity = 99 WHERE l_orderkey = 1`,
		`DELETE FROM lineitem WHERE l_orderkey = 7`,
		`UPDATE orders SET o_shippriority = 1 WHERE o_orderkey = 32`,
		`INSERT INTO orders VALUES (999999, 1, 'F', 1.0, DATE '1995-06-01', '1-URGENT', 'clerk', 7, 'delta row')`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	for _, par := range []int{1, 4} {
		db.SetParallelism(par)
		for _, sq := range tpch.SQLSuite() {
			db.SetDataSkipping(true)
			on, err := db.Query(sq.SQL)
			if err != nil {
				t.Fatalf("%s par=%d: %v", sq.Name, par, err)
			}
			db.SetDataSkipping(false)
			off, err := db.Query(sq.SQL)
			if err != nil {
				t.Fatalf("%s par=%d (noprune): %v", sq.Name, par, err)
			}
			testutil.MatchRows(t, sq.Name+" prune-on-vs-off", off.Rows, on.Rows)
		}
	}
}

// collectViaCursor drains a QueryContext cursor batch-at-a-time into
// boxed rows for comparison.
func collectViaCursor(db *vectorwise.DB, sql string) ([]vtypes.Row, error) {
	rows, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []vtypes.Row
	for {
		b, err := rows.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		for i := 0; i < b.N; i++ {
			out = append(out, b.Row(i))
		}
	}
}

// The tuple-mover differential: two identically loaded DBs receive the
// same live DML batches; one runs with an aggressive background mover
// (short tick, tiny rebuild threshold, plus a forced pass per batch so
// folds and stable-image swaps are guaranteed, not just likely), the
// other never moves a tuple. Every suite query must be row-identical
// between them after every batch — a moved layer stack is a physical
// reorganization and may never change visible data — and on the moving
// DB min/max pruning on vs. off must also stay row-identical, pinning
// data skipping correct across rebuilt stable images and folded
// deltas.
func TestSQLSuiteWithActiveMover(t *testing.T) {
	moving := vectorwise.OpenMemory()
	frozen := vectorwise.OpenMemory()
	for _, db := range []*vectorwise.DB{moving, frozen} {
		// Parallelism is fixed (exchange fan-out is covered elsewhere);
		// this differential is about storage reorganization.
		db.SetParallelism(2)
		if _, err := Load(db, 0.005); err != nil {
			t.Fatal(err)
		}
	}
	defer moving.Close()
	defer frozen.Close()
	moving.SetMoverThreshold(8)
	moving.SetMoverInterval(5 * time.Millisecond)
	defer moving.SetMoverInterval(0)

	batches := [][]string{
		{
			`UPDATE lineitem SET l_quantity = 99 WHERE l_orderkey = 1`,
			`DELETE FROM lineitem WHERE l_orderkey = 7`,
			`INSERT INTO orders VALUES (999999, 1, 'F', 1.0, DATE '1995-06-01', '1-URGENT', 'clerk', 7, 'delta row')`,
		},
		{
			// Wide enough to clear the rebuild threshold (dozens of
			// lineitem rows), narrow enough that the frozen DB's
			// unfolded Mod layer stays cheap to merge-scan.
			`UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey < 50`,
			`UPDATE orders SET o_shippriority = 1 WHERE o_orderkey = 32`,
			`DELETE FROM orders WHERE o_orderkey = 5`,
		},
		{
			`INSERT INTO lineitem VALUES (999999, 1, 1, 1, 13.0, 14000.0, 0.05, 0.02, 'N', 'O', DATE '1996-01-01', DATE '1996-01-05', DATE '1996-01-10', 'NONE', 'AIR', 'moved row')`,
			`UPDATE customer SET c_acctbal = c_acctbal + 10 WHERE c_custkey = 1`,
			`DELETE FROM lineitem WHERE l_orderkey = 3`,
		},
	}
	for bi, batch := range batches {
		for _, stmt := range batch {
			for _, db := range []*vectorwise.DB{moving, frozen} {
				if _, err := db.Exec(stmt); err != nil {
					t.Fatalf("batch %d %q: %v", bi, stmt, err)
				}
			}
		}
		// Forced pass on top of the background tick: the moving DB has
		// definitely folded (and, past the threshold, rebuilt) before
		// the comparison sweep.
		if err := moving.MoveTuples(); err != nil {
			t.Fatalf("batch %d move: %v", bi, err)
		}
		for _, sq := range tpch.SQLSuite() {
			want, err := frozen.Query(sq.SQL)
			if err != nil {
				t.Fatalf("batch %d %s frozen: %v", bi, sq.Name, err)
			}
			moving.SetDataSkipping(true)
			on, err := moving.Query(sq.SQL)
			if err != nil {
				t.Fatalf("batch %d %s moving: %v", bi, sq.Name, err)
			}
			testutil.MatchRows(t, fmt.Sprintf("batch %d %s mover-on-vs-off", bi, sq.Name), want.Rows, on.Rows)
			moving.SetDataSkipping(false)
			off, err := moving.Query(sq.SQL)
			if err != nil {
				t.Fatalf("batch %d %s moving (noprune): %v", bi, sq.Name, err)
			}
			testutil.MatchRows(t, fmt.Sprintf("batch %d %s prune-across-moved-layers", bi, sq.Name), want.Rows, off.Rows)
		}
	}
	st := moving.MoverStats()
	if st.Folds == 0 {
		t.Fatalf("mover never folded during the sweep: %+v", st)
	}
	if st.Rebuilds == 0 {
		t.Fatalf("mover never rebuilt a stable image during the sweep: %+v", st)
	}
}

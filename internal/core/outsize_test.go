package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/pdt"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// drainSized drains op and returns its rows, the most rows one batch held
// and the most slots any vector of a batch had.
func drainSized(t *testing.T, op Operator) (rows []string, maxN, maxCap int) {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows, maxN, maxCap
		}
		maxN = max(maxN, b.N)
		for _, v := range b.Vecs {
			maxCap = max(maxCap, v.Len())
		}
		for i := range b.N {
			rows = append(rows, fmt.Sprint(b.Row(i)))
		}
	}
}

// checkSized fails unless an operator's vectors held its largest batch,
// at most twice over and never past vecSize.
func checkSized(t *testing.T, name string, maxN, maxCap, vecSize int) {
	t.Helper()
	if maxN == 0 || maxCap < maxN || maxCap > 2*maxN || maxCap > vecSize {
		t.Errorf("%s: vectors of up to %d slots for batches of up to %d rows, vector size %d", name, maxCap, maxN, vecSize)
	}
}

// q1Batches are n rows shaped like Q1's input: two flag columns that make
// Q1's four groups, two DOUBLE measures, in batches of at most 1024 rows.
func q1Batches(n int) (*vtypes.Schema, []*vector.Batch) {
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "flag", Kind: vtypes.KindStr},
		vtypes.Column{Name: "status", Kind: vtypes.KindStr},
		vtypes.Column{Name: "qty", Kind: vtypes.KindF64},
		vtypes.Column{Name: "price", Kind: vtypes.KindF64})
	var batches []*vector.Batch
	for lo := 0; lo < n; lo += 1024 {
		m := min(1024, n-lo)
		b := vector.NewBatch(schema, m)
		for i := range m {
			r := lo + i
			b.Vecs[0].Str[i], b.Vecs[1].Str[i] = []string{"A", "N", "R"}[r%3], "F"
			if r%6 == 1 {
				b.Vecs[1].Str[i] = "O" // N-O beside A-F, N-F and R-F
			}
			b.Vecs[2].F64[i] = float64(r % 50)
			b.Vecs[3].F64[i] = float64(r%1000) + 0.25
		}
		b.SetDense(m)
		batches = append(batches, b)
	}
	return schema, batches
}

// TestOutputVectorsSizedByRows: an operator that builds its own output
// sizes it by the rows it emits, not by the vector size — Q1's four
// groups leave the aggregate in four slots, ten sorted rows in ten, a
// join's matches in as many as the largest output batch (also when a
// later probe batch fans out further than the first), and a merge over
// five inserted rows in five.
func TestOutputVectorsSizedByRows(t *testing.T) {
	for _, vecSize := range []int{1, 3, 1024} {
		name := func(op string) string { return fmt.Sprintf("%s/vec%d", op, vecSize) }

		schema, batches := q1Batches(6000)
		agg := NewHashAggregate(&batchSource{schema: schema, batches: batches},
			[]Expr{col(0, vtypes.KindStr), col(1, vtypes.KindStr)},
			[]AggSpec{{Fn: AggSum, Arg: col(2, vtypes.KindF64)}, {Fn: AggSum, Arg: col(3, vtypes.KindF64)},
				{Fn: AggCount, Arg: col(2, vtypes.KindF64)}, {Fn: AggCountStar}},
			[]string{"flag", "status", "sum_qty", "sum_price", "count_qty", "n"})
		agg.vecSize = vecSize
		rows, maxN, maxCap := drainSized(t, agg)
		if len(rows) != 4 {
			t.Fatalf("%s: %d groups, want 4", name("aggregate"), len(rows))
		}
		checkSized(t, name("aggregate"), maxN, maxCap, vecSize)

		ungrouped := NewHashAggregate(&batchSource{schema: schema, batches: batches}, nil,
			[]AggSpec{{Fn: AggSum, Arg: col(2, vtypes.KindF64)}, {Fn: AggCountStar}}, []string{"s", "n"})
		ungrouped.vecSize = vecSize
		_, maxN, maxCap = drainSized(t, ungrouped)
		checkSized(t, name("ungrouped aggregate"), maxN, maxCap, vecSize)

		ten := i64Batch([]int64{9, 3, 7, 1, 8, 2, 6, 0, 5, 4})
		srt := NewSort(&batchSource{schema: i64Schema(), batches: []*vector.Batch{ten}}, []SortKey{{Expr: col(0, vtypes.KindI64)}})
		srt.vecSize = vecSize
		rows, maxN, maxCap = drainSized(t, srt)
		if strings.Join(rows, "") != "[0][1][2][3][4][5][6][7][8][9]" {
			t.Fatalf("%s: %v", name("sort"), rows)
		}
		checkSized(t, name("sort"), maxN, maxCap, vecSize)

		// Inner join: the probe arrives in batches of at most vecSize rows,
		// as a scan's would; at 1024 the first fans out to 2 rows and the
		// second to 14, so the gathered probe and build columns regrow.
		var probe []*vector.Batch
		for _, keys := range [][]int64{{1, 9}, {1, 2, 3, 1, 2, 3, 1, 2, 3, 1}} {
			for part := range slices.Chunk(keys, vecSize) {
				probe = append(probe, i64Batch(part))
			}
		}
		build := []int64{1, 1, 2, 3}
		j, err := NewHashJoin(&batchSource{schema: i64Schema(), batches: probe},
			&batchSource{schema: i64Schema(), batches: []*vector.Batch{i64Batch(build)}},
			[]Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
		if err != nil {
			t.Fatal(err)
		}
		j.vecSize = vecSize
		rows, maxN, maxCap = drainSized(t, j)
		if len(rows) != 16 {
			t.Fatalf("%s: %d rows, want 16", name("join"), len(rows))
		}
		checkSized(t, name("join"), maxN, maxCap, vecSize)

		// A BuildLeft outer join keeps its unmatched left rows (4 of them)
		// under NULL right columns.
		left := i64Batch([]int64{1, 4, 1, 5, 6, 7})
		j, err = NewHashJoin(&batchSource{schema: i64Schema(), batches: []*vector.Batch{left}},
			&batchSource{schema: i64Schema(), batches: []*vector.Batch{i64Batch([]int64{1})}},
			[]Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinLeftOuter)
		if err != nil {
			t.Fatal(err)
		}
		j.BuildLeft()
		j.vecSize = vecSize
		rows, maxN, maxCap = drainSized(t, j)
		slices.Sort(rows)
		if want := "[1 1] [1 1] [4 NULL] [5 NULL] [6 NULL] [7 NULL]"; strings.Join(rows, " ") != want {
			t.Fatalf("%s: %v, want %s", name("outer join"), rows, want)
		}
		checkSized(t, name("outer join"), maxN, maxCap, vecSize)

		// A merge over a table of no stable rows and five inserted ones.
		tbl := buildOrders(t, 0, 32)
		ins := pdt.New(tbl.Schema(), 0)
		for i := range 5 {
			if err := ins.Append(vtypes.Row{vtypes.I64Value(int64(i)), vtypes.I64Value(1), vtypes.F64Value(1.5), vtypes.StrValue("NEW")}); err != nil {
				t.Fatal(err)
			}
		}
		rows, maxN, maxCap = drainSized(t, NewScan(tbl, []int{0, 2, 3}, ScanOpts{Layers: []*pdt.PDT{ins}, VecSize: vecSize}))
		if len(rows) != 5 {
			t.Fatalf("%s: %d rows, want 5", name("merge"), len(rows))
		}
		checkSized(t, name("merge"), maxN, maxCap, vecSize)
	}
}

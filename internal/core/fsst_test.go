package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"vectorwise/internal/compress"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// fsstWords are the words fsstSentence draws from.
var fsstWords = strings.Fields("furiously regular deposits sleep carefully final requests among the ironic packages haggle slyly express accounts nag")

// fsstSentence returns row i's text: 30 words drawn from fsstWords by a
// generator seeded with i.
func fsstSentence(i int) string {
	rng := rand.New(rand.NewSource(int64(i)))
	w := make([]string, 30)
	for k := range w {
		w[k] = fsstWords[rng.Intn(len(fsstWords))]
	}
	return strings.Join(w, " ")
}

// fsstBatches builds (k BIGINT, c VARCHAR) with k = i and c =
// fsstSentence(i) for n rows, in row groups of 4 096 whose c chunks are
// FSST-coded, each under its own symbol table, and returns the rows as a
// scan hands them out, 1 024 a batch, each batch's vectors kept: c is an
// FSST arena over its chunk's codes. decoded is the bytes c's rows stand
// for.
func fsstBatches(t testing.TB, n int) (schema *vtypes.Schema, batches []*vector.Batch, decoded int) {
	t.Helper()
	schema = vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "c", Kind: vtypes.KindStr})
	b := storage.NewBuilder("f", schema, 4096)
	for i := range n {
		c := fsstSentence(i)
		decoded += len(c)
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), vtypes.StrValue(c)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for g := range tbl.Groups() {
		if codec := tbl.Meta.Groups[g].Cols[1].Codec; codec != compress.CodecFSST {
			t.Fatalf("group %d: c coded %v", g, codec)
		}
	}
	sc := storage.NewScanner(tbl, []int{0, 1}, nil, nil, vector.DefaultSize)
	for {
		vecs, m, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if m == 0 {
			return schema, batches, decoded
		}
		k := &vector.Vector{Kind: vtypes.KindI64, I64: append([]int64(nil), vecs[0].I64[:m]...)}
		c := *vecs[1] // the scanner reuses its views; the chunk they view stays
		if !c.FSST() {
			t.Fatalf("batch %d: c is not an FSST arena", len(batches))
		}
		bt := &vector.Batch{Vecs: []*vector.Vector{k, &c}}
		bt.SetDense(m)
		batches = append(batches, bt)
	}
}

// TestColBufKeepsFSSTCodes: a payload buffer keeps FSST rows of several
// chunks, beside strings with NULLs, as codes under their own tables, and
// gathers, under a selection and with an outer join's -1, the strings they
// stand for; retain keeps each row's codes with its table. A key buffer
// keeps every row decoded.
func TestColBufKeepsFSSTCodes(t *testing.T) {
	_, batches, _ := fsstBatches(t, 3*4096)
	strs := &vector.Vector{Kind: vtypes.KindStr, Str: []string{"x", "", "y"}, Nulls: []bool{false, true, false}}
	c, key := &colBuf{kind: vtypes.KindStr}, &colBuf{kind: vtypes.KindStr, key: true}
	var want []string
	add := func(v *vector.Vector, sel []int32) {
		n := len(sel)
		for k := range n {
			s := v.StrAt(int(sel[k]))
			if v.Nulls != nil && v.Nulls[sel[k]] {
				s = "NULL"
			}
			want = append(want, s)
		}
		c.append(v, sel, n)
		key.append(v, sel, n)
	}
	add(strs, []int32{0, 1})
	for _, b := range []*vector.Batch{batches[0], batches[5], batches[9]} { // three chunks
		add(b.Vecs[1], []int32{3, 500, 1023})
	}
	add(strs, []int32{1, 2})
	add(batches[1].Vecs[1], []int32{0, 1, 2})
	if got, keyed := codedRuns(c), codedRuns(key); got != 4 || keyed != 0 {
		t.Fatalf("payload buffer keeps %d runs of codes; key buffer %d", got, keyed)
	}
	read := func(buf *colBuf, idx []int32) []string {
		dst := vector.New(vtypes.KindStr, 2*len(idx)+1)
		dst.EnsureNulls()
		pos := make([]int32, len(idx))
		for k := range pos {
			pos[k] = int32(2*k + 1) // every other slot, as over a probe's selection
		}
		buf.gather(dst, pos, idx, len(idx))
		out := make([]string, len(idx))
		for k, p := range pos {
			if out[k] = dst.Str[p]; dst.Nulls[p] {
				out[k] = "NULL:" + dst.Str[p]
			}
		}
		return out
	}
	idx := []int32{15, -1, 0, 5, 1, 2, 13, 8, 11}
	for _, buf := range []*colBuf{c, key} {
		got := read(buf, idx)
		for k, r := range idx {
			w := "NULL:"
			if r >= 0 {
				if w = want[r]; w == "NULL" {
					w = "NULL:"
				}
			}
			if got[k] != w {
				t.Fatalf("key %v: row %d reads %q, want %q", buf.key, r, got[k], w)
			}
		}
	}
	// A cut keeps rows of every table, in order.
	keep := []int32{1, 3, 7, 10, 12, 14, 15}
	c.retain(keep)
	got := read(c, []int32{0, 1, 2, 3, 4, 5, 6})
	for k, r := range keep {
		if w := want[r]; got[k] != w && !(w == "NULL" && got[k] == "NULL:") {
			t.Fatalf("after retain, row %d (was %d) reads %q, want %q", k, r, got[k], w)
		}
	}
}

// codedRuns counts the runs of rows c keeps as FSST codes.
func codedRuns(c *colBuf) int {
	n := 0
	for _, ch := range c.str {
		for _, r := range ch.runs {
			n += btoi(r.sym != nil)
		}
	}
	return n
}

// TestHashJoinBuildKeepsFSSTCodes: a hash join whose build side carries an
// FSST payload of N rows stores their codes, not their strings: the whole
// join, build and probe, allocates less than the payload's decoded bytes,
// and the rows it emits read their own strings.
func TestHashJoinBuildKeepsFSSTCodes(t *testing.T) {
	schema, batches, decoded := fsstBatches(t, 20000)
	probe := &batchSource{schema: i64Schema(), batches: []*vector.Batch{i64Batch([]int64{7, 4100, 19999, 20001})}}
	build := &batchSource{schema: schema, batches: batches}
	j, err := NewHashJoin(probe, build, []Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rows := drainRows(t, j)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got >= uint64(decoded) {
		t.Errorf("the join allocated %d bytes for a payload of %d rows that decode to %d", got, 20000, decoded)
	}
	t.Logf("the join allocated %d bytes; the payload decodes to %d", got, decoded)
	want := []string{"7|7|" + fsstSentence(7) + "|", "4100|4100|" + fsstSentence(4100) + "|", "19999|19999|" + fsstSentence(19999) + "|"}
	if g, w := fmt.Sprint(rows), fmt.Sprint(want); g != w {
		t.Fatalf("join rows\n%s\nwant\n%s", g, w)
	}
}

package core

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// TestChunkIsOneVector pins primitives.ChunkRows, which the primitives
// package cannot take from vector, to vector.DefaultSize: a buffer's chunk
// holds one vector's rows, and a payload join indexes its stored rows a
// vector at a time.
func TestChunkIsOneVector(t *testing.T) {
	if primitives.ChunkRows != vector.DefaultSize {
		t.Fatalf("primitives.ChunkRows = %d, vector.DefaultSize = %d", primitives.ChunkRows, vector.DefaultSize)
	}
}

// TestPayloadBuildSizedOnce: a payload join (inner, left outer, and a
// BuildLeft semi join, which stores its NULL keys too) of N build rows
// hashes them into one table made after they are stored, for N entries at
// the probe load. Its slots are the power of two ≥ 2N, it never resized
// (hashtable.Stats.Resizes counts every directory after the first), and it
// holds each distinct non-NULL key once. N straddles the chunk size, and
// every key has three rows, so the table is sized by rows, not keys. The
// join's rows are joinOracle's in its order: probe order, and build order
// within a key.
func TestPayloadBuildSizedOnce(t *testing.T) {
	const chunk = primitives.ChunkRows
	for _, rows := range []int{chunk - 1, chunk, chunk + 1, 3*chunk + 1} {
		build, stream, distinct := sizedBuildInputs(rows)
		buildRows, streamRows := boxedRows(build.batches), boxedRows(stream.batches)
		for _, tc := range []struct {
			typ       JoinType
			buildLeft bool
		}{{JoinInner, false}, {JoinLeftOuter, false}, {JoinLeftSemi, true}} {
			name := fmt.Sprintf("rows=%d/%s/buildLeft=%v", rows, []string{"inner", "semi", "anti", "outer"}[tc.typ], tc.buildLeft)
			left, right, stored := stream, build, rows-(rows+10)/11
			want := joinOracle(streamRows, buildRows, 0, 0, build.schema, tc.typ)
			if tc.buildLeft {
				left, right, stored = build, stream, rows
				want = joinOracle(buildRows, streamRows, 0, 0, stream.schema, tc.typ)
			}
			j, err := NewHashJoin(left, right, []Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, tc.typ)
			if err != nil {
				t.Fatal(err)
			}
			if tc.buildLeft {
				j.BuildLeft()
			}
			var sink HashStatsSink
			j.SetStatsSink(&sink)
			got := collectBounded(t, j, vector.DefaultSize)
			if g, w := strings.Join(rowStrings(got), "\n"), strings.Join(rowStrings(want), "\n"); g != w {
				t.Fatalf("%s: %d rows differ from the nested-loop oracle's %d", name, len(got), len(want))
			}
			slots := max(64, 1<<bits.Len(uint(2*stored-1)))
			if st := sink.Snapshot(); len(st) != 1 || st[0].Slots != slots || st[0].Resizes != 0 || st[0].Entries != distinct {
				t.Fatalf("%s: table after build %+v, want %d keys in %d slots (the power of two ≥ 2×%d stored rows), never resized",
					name, st, distinct, slots, stored)
			}
		}
	}
}

// sizedBuildInputs returns a build side (k BIGINT NULL, tag VARCHAR) of
// `rows` rows in batches of 1 000, so that batches straddle chunks: row i
// has key i/3 and every eleventh row, from row 0, a NULL key. The stream
// (k BIGINT NULL, id BIGINT) probes every key once, in descending order,
// plus a NULL key, key 0 again and a key no build row has.
func sizedBuildInputs(rows int) (build, stream *batchSource, distinct int) {
	bschema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64, Nullable: true},
		vtypes.Column{Name: "tag", Kind: vtypes.KindStr})
	build = &batchSource{schema: bschema}
	keys := map[int64]bool{}
	for lo := 0; lo < rows; lo += 1000 {
		n := min(1000, rows-lo)
		b := vector.NewBatch(bschema, n)
		b.Vecs[0].EnsureNulls()
		for i := range n {
			r := lo + i
			if r%11 == 0 {
				b.Vecs[0].Nulls[i] = true
			} else {
				b.Vecs[0].I64[i] = int64(r / 3)
				keys[int64(r/3)] = true
			}
			b.Vecs[1].Str[i] = fmt.Sprint("t", r)
		}
		b.SetDense(n)
		build.batches = append(build.batches, b)
	}
	sschema := vtypes.NewSchema(
		vtypes.Column{Name: "k", Kind: vtypes.KindI64, Nullable: true},
		vtypes.Column{Name: "id", Kind: vtypes.KindI64})
	probe := []int64{-1, 0, int64(rows)}
	for k := int64(rows / 3); k >= 0; k-- {
		probe = append(probe, k)
	}
	b := vector.NewBatch(sschema, len(probe))
	b.Vecs[0].EnsureNulls()
	for i, k := range probe {
		b.Vecs[0].I64[i], b.Vecs[0].Nulls[i], b.Vecs[1].I64[i] = max(k, 0), k < 0, int64(i)
	}
	b.SetDense(len(probe))
	return build, &batchSource{schema: sschema, batches: []*vector.Batch{b}}, len(keys)
}

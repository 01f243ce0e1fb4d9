package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// TestScanCancellation: a canceled context stops a scan at the next
// vector boundary with the context's error.
func TestScanCancellation(t *testing.T) {
	tbl := buildOrders(t, 5000, 512)
	sc := NewScan(tbl, []int{0, 2}, ScanOpts{VecSize: 100})
	ctx, cancel := context.WithCancel(context.Background())
	sc.SetContext(ctx)
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.Next(); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	cancel()
	if _, err := sc.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled after cancel, got %v", err)
	}
}

// TestAggregateCancellationDuringBuild: cancellation interrupts a
// stop-and-go operator while it is still consuming input, before any
// output group is emitted.
func TestAggregateCancellationDuringBuild(t *testing.T) {
	tbl := buildOrders(t, 5000, 512)
	sc := NewScan(tbl, []int{1, 2}, ScanOpts{VecSize: 100})
	agg := NewHashAggregate(sc,
		[]Expr{col(0, sc.Schema().Col(0).Kind)},
		[]AggSpec{{Fn: AggSum, Arg: col(1, sc.Schema().Col(1).Kind)}},
		[]string{"cust", "total"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first Next: build must not run
	agg.SetContext(ctx)
	sc.SetContext(ctx)
	if err := agg.Open(); err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if _, err := agg.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSortCancellationAfterInput: a context canceled once the input is
// drained — inside the sort phase, which on a large input is most of the
// statement — stops the sort before the first output batch, whether it is
// splitting radix buckets or ordering runs tied on a VARCHAR prefix.
func TestSortCancellationAfterInput(t *testing.T) {
	schema := vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}, vtypes.Column{Name: "s", Kind: vtypes.KindStr})
	var batches []*vector.Batch
	for bi := 0; bi < 4; bi++ {
		b := vector.NewBatch(schema, 1024)
		for i := 0; i < 1024; i++ {
			k := int64(bi*1024+i) * 7919 % 4096
			b.Vecs[0].I64[i], b.Vecs[1].Str[i] = k, fmt.Sprint("a prefix of twelve bytes and ", k%3, " #", k)
		}
		b.SetDense(1024)
		batches = append(batches, b)
	}
	for name, key := range map[string]SortKey{"radix": {Expr: col(0, vtypes.KindI64)}, "ties": {Expr: col(1, vtypes.KindStr)}} {
		ctx, cancel := context.WithCancel(context.Background())
		src := &batchSource{schema: schema, batches: batches}
		src.onNext = func(call int) {
			if call == len(batches) { // the call that reports end of input
				cancel()
			}
		}
		srt := NewSort(src, []SortKey{key})
		srt.SetContext(ctx)
		if err := srt.Open(); err != nil {
			t.Fatal(err)
		}
		if _, err := srt.Next(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled from the sort phase, got %v", name, err)
		}
		if src.calls != len(batches)+1 {
			t.Fatalf("%s: input pulled %d times, want it drained (%d)", name, src.calls, len(batches)+1)
		}
		srt.Close()
	}
}

// TestXchgCancellation: exchange workers stop on cancellation — the
// consumer observes the context error and Close joins all producers
// without hanging (the -race build would flag a leaked producer write).
func TestXchgCancellation(t *testing.T) {
	tbl := buildOrders(t, 20000, 512)
	parts := PartitionGroups(tbl.Groups(), 4)
	children := make([]Operator, len(parts))
	ctx, cancel := context.WithCancel(context.Background())
	for i, p := range parts {
		sc := NewScan(tbl, []int{0, 2}, ScanOpts{VecSize: 64, GroupLo: p[0], GroupHi: p[1]})
		sc.SetContext(ctx)
		children[i] = sc
	}
	x, err := NewXchgUnion(children)
	if err != nil {
		t.Fatal(err)
	}
	x.SetContext(ctx)
	if err := x.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Next(); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	cancel()
	// Workers may still flush already-copied batches; within a few
	// Nexts the context error must surface.
	var got error
	for i := 0; i < 1000; i++ {
		b, err := x.Next()
		if err != nil {
			got = err
			break
		}
		if b == nil {
			break
		}
	}
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("want context.Canceled from exchange, got %v", got)
	}
	if err := x.Close(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("close: %v", err)
	}
}

// TestNilContextIsFree: operators without a context behave exactly as
// before (the hand-built experiment plans never pay for cancellation).
func TestNilContextIsFree(t *testing.T) {
	tbl := buildOrders(t, 1000, 256)
	sc := NewScan(tbl, []int{0}, ScanOpts{VecSize: 128})
	n, err := Drain(sc)
	if err != nil || n != 1000 {
		t.Fatalf("drain: n=%d err=%v", n, err)
	}
}

package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// fakeSource is an operator that emits its values one batch per value,
// optionally failing partway — a shard stream as the exchange sees it.
type fakeSource struct {
	vals    []int64
	failAt  int // -1: never
	pos     int
	opened  bool
	closed  bool
	openErr error
}

func (f *fakeSource) Schema() *vtypes.Schema { return i64Schema() }

func (f *fakeSource) Open() error {
	f.opened = true
	return f.openErr
}

func (f *fakeSource) Next() (*vector.Batch, error) {
	if f.failAt >= 0 && f.pos == f.failAt {
		return nil, fmt.Errorf("fake: source died")
	}
	if f.pos >= len(f.vals) {
		return nil, nil
	}
	b := vector.NewBatchOfKinds([]vtypes.Kind{vtypes.KindI64}, 1)
	b.Vecs[0].I64[0] = f.vals[f.pos]
	b.SetDense(1)
	f.pos++
	return b, nil
}

func (f *fakeSource) Close() error {
	f.closed = true
	return nil
}

func i64Schema() *vtypes.Schema {
	return vtypes.NewSchema(vtypes.Column{Name: "v", Kind: vtypes.KindI64})
}

func drainExchange(t *testing.T, x *XchgUnion) ([]int64, error) {
	t.Helper()
	if err := x.Open(); err != nil {
		return nil, err
	}
	var got []int64
	for {
		b, err := x.Next()
		if err != nil {
			x.Close()
			return got, err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			got = append(got, b.Vecs[0].I64[b.LiveIndex(i)])
		}
	}
	return got, x.Close()
}

func TestXchgUnionUnionsAllSources(t *testing.T) {
	srcs := []Operator{
		&fakeSource{vals: []int64{1, 2, 3}, failAt: -1},
		&fakeSource{vals: []int64{4, 5}, failAt: -1},
		&fakeSource{vals: nil, failAt: -1}, // empty shard
	}
	x, err := NewXchgUnion(srcs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainExchange(t, x)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	for i, s := range srcs {
		fs := s.(*fakeSource)
		if !fs.opened || !fs.closed {
			t.Fatalf("source %d: opened=%v closed=%v", i, fs.opened, fs.closed)
		}
	}
}

func TestXchgUnionSurfacesSourceError(t *testing.T) {
	srcs := []Operator{
		&fakeSource{vals: []int64{1, 2, 3}, failAt: -1},
		&fakeSource{vals: []int64{4, 5}, failAt: 1},
	}
	x, err := NewXchgUnion(srcs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainExchange(t, x); err == nil {
		t.Fatal("want error from dying source")
	}
}

func TestXchgUnionOpenErrorAndClose(t *testing.T) {
	srcs := []Operator{
		&fakeSource{vals: []int64{1}, failAt: -1},
		&fakeSource{openErr: fmt.Errorf("fake: connect refused"), failAt: -1},
	}
	x, err := NewXchgUnion(srcs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainExchange(t, x); err == nil {
		t.Fatal("want open error surfaced")
	}
	for i, s := range srcs {
		if !s.(*fakeSource).closed {
			t.Fatalf("source %d not closed after error", i)
		}
	}
}

func TestXchgUnionContextCancel(t *testing.T) {
	srcs := []Operator{&fakeSource{vals: make([]int64, 100), failAt: -1}}
	x, err := NewXchgUnion(srcs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	x.SetContext(ctx)
	if err := x.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	var nerr error
	for i := 0; i < 200; i++ {
		if _, nerr = x.Next(); nerr != nil {
			break
		}
	}
	if nerr == nil {
		t.Fatal("want cancellation error from Next")
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
}

// A parent whose own Open fails closes its children without opening
// them: Close on a never-opened exchange must neither panic nor leave a
// goroutine behind.
func TestXchgUnionCloseWithoutOpen(t *testing.T) {
	srcs := []Operator{&fakeSource{vals: []int64{1}, failAt: -1}}
	x, err := NewXchgUnion(srcs)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("Close without Open left goroutines: %d -> %d", before, after)
	}
	if fs := srcs[0].(*fakeSource); fs.opened || !fs.closed {
		t.Fatalf("child opened=%v closed=%v, want closed only", fs.opened, fs.closed)
	}

	// Open, Close, Close (a cursor's Close after an error path already
	// closed the tree): the second Close must not close the channel
	// again, and nothing the exchange started may outlive the first.
	x, err = NewXchgUnion([]Operator{
		&fakeSource{vals: []int64{1, 2, 3}, failAt: -1}, &fakeSource{vals: []int64{4, 5}, failAt: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := x.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	for wait := 0; runtime.NumGoroutine() > before; wait++ { // an exiting goroutine is counted until it is gone
		if wait == 1000 {
			t.Fatalf("Open, Close, Close left goroutines: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestXchgUnionNeedsSources(t *testing.T) {
	if _, err := NewXchgUnion(nil); err == nil {
		t.Fatal("want error for zero sources")
	}
}

package vectorwise

// Mixed-workload soak: the test that pins the epoch-snapshot + tuple-
// mover concurrency contract. A deliberately slow streaming reader
// coexists with a pack of concurrent writers and an active background
// mover; the reader must neither block the writers nor observe any
// state other than its pinned epoch, and writes must stay fast (their
// latency distribution is recorded). Run under -race in CI.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// soakWriters / soakWritesPerWriter size the write storm; each write is
// one Exec inserting the same key twice, so a torn read is detectable
// as an odd per-key multiplicity.
const (
	soakWriters         = 20
	soakWritesPerWriter = 15
	soakBaseRows        = 20000
	soakKeyBase         = 1_000_000
)

func soakKey(writer, iter int) int64 {
	return soakKeyBase + int64(writer)*1000 + int64(iter)
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)-1) * p / 100)
	return sorted[i]
}

func TestMixedWorkloadSoak(t *testing.T) {
	db := rowsTestDB(t, soakBaseRows)
	defer db.Close()
	// Aggressive mover: short tick, tiny rebuild threshold, so folds
	// and stable-image swaps happen repeatedly during the storm.
	db.SetMoverThreshold(64)
	db.SetMoverInterval(2 * time.Millisecond)
	defer db.SetMoverInterval(0)

	// Slow streaming reader: pins its epoch before any soak write
	// commits, then dribbles batches with sleeps while the storm runs.
	// It must see exactly the base fixture — count and content — and
	// never a soak key.
	readerPinned := make(chan uint64, 1)
	readerDone := make(chan error, 1)
	writersStart := make(chan struct{})
	var writersDone sync.WaitGroup
	go func() {
		readerDone <- func() error {
			rows, err := db.QueryContext(context.Background(), `SELECT k FROM pts`)
			if err != nil {
				return err
			}
			defer rows.Close()
			readerPinned <- rows.Epoch()
			<-writersStart
			var n int64
			for {
				b, err := rows.NextBatch()
				if err != nil {
					return err
				}
				if b == nil {
					break
				}
				for i := 0; i < b.N; i++ {
					if k := b.Vecs[0].I64[b.LiveIndex(i)]; k >= soakKeyBase {
						return fmt.Errorf("slow reader saw soak key %d from a later epoch", k)
					}
				}
				n += int64(b.N)
				time.Sleep(3 * time.Millisecond)
			}
			if n != soakBaseRows {
				return fmt.Errorf("slow reader saw %d rows, want %d (pinned epoch torn)", n, soakBaseRows)
			}
			return nil
		}()
	}()
	pinnedEpoch := <-readerPinned

	// Writers: each Exec inserts its key twice atomically. Latencies
	// are collected for the p50/p99 report.
	latCh := make(chan time.Duration, soakWriters*soakWritesPerWriter)
	writeErr := make(chan error, soakWriters)
	writersDone.Add(soakWriters)
	start := time.Now()
	for w := 0; w < soakWriters; w++ {
		go func(w int) {
			defer writersDone.Done()
			for i := 0; i < soakWritesPerWriter; i++ {
				k := soakKey(w, i)
				stmt := fmt.Sprintf(`INSERT INTO pts VALUES (%d, 1.5, 'w'), (%d, 2.5, 'w')`, k, k)
				t0 := time.Now()
				if _, err := db.Exec(stmt); err != nil {
					writeErr <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				latCh <- time.Since(t0)
			}
		}(w)
	}
	close(writersStart)

	// Verifier: while the storm runs, repeatedly pin fresh snapshots
	// and check atomicity (every soak key appears 0 or 2 times — a torn
	// read of a half-applied statement would show 1) and epoch
	// stability (two cursors at the same epoch count the same rows).
	verifyErr := make(chan error, 1)
	verifyStop := make(chan struct{})
	go func() {
		verifyErr <- func() error {
			var lastEpoch, lastCount uint64
			for {
				select {
				case <-verifyStop:
					return nil
				default:
				}
				rows, err := db.QueryContext(context.Background(), `SELECT k FROM pts WHERE k >= 1000000`)
				if err != nil {
					return err
				}
				counts := make(map[int64]int)
				var total uint64
				for {
					b, err := rows.NextBatch()
					if err != nil {
						return err
					}
					if b == nil {
						break
					}
					for i := 0; i < b.N; i++ {
						counts[b.Vecs[0].I64[b.LiveIndex(i)]]++
					}
					total += uint64(b.N)
				}
				for k, c := range counts {
					if c != 2 {
						return fmt.Errorf("torn read: soak key %d appears %d times (want 2)", k, c)
					}
				}
				if e := rows.Epoch(); e == lastEpoch && total != lastCount {
					return fmt.Errorf("epoch %d reported %d then %d rows", e, lastCount, total)
				} else {
					lastEpoch, lastCount = e, total
				}
			}
		}()
	}()

	writersDone.Wait()
	elapsed := time.Since(start)
	close(latCh)
	close(verifyStop)
	select {
	case err := <-writeErr:
		t.Fatal(err)
	default:
	}
	if err := <-verifyErr; err != nil {
		t.Fatal(err)
	}
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}

	// Latency report: the whole point of snapshot reads is that writers
	// never queue behind a slow cursor.
	var lats []time.Duration
	for d := range latCh {
		lats = append(lats, d)
	}
	if len(lats) != soakWriters*soakWritesPerWriter {
		t.Fatalf("collected %d write latencies, want %d", len(lats), soakWriters*soakWritesPerWriter)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	t.Logf("soak: %d writes in %v; write latency p50=%v p99=%v max=%v; mover=%+v",
		len(lats), elapsed, percentile(lats, 50), percentile(lats, 99), lats[len(lats)-1], db.MoverStats())

	// Final state: exactly the base fixture plus every soak write, at a
	// newer epoch than the slow reader pinned.
	if db.Epoch() == pinnedEpoch {
		t.Fatal("data epoch never advanced during the write storm")
	}
	res, err := db.Query(`SELECT COUNT(*) FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(soakBaseRows + 2*soakWriters*soakWritesPerWriter)
	if got := res.Rows[0][0].I64; got != want {
		t.Fatalf("final row count %d, want %d", got, want)
	}
	// The mover must have actually moved tuples. One more insert
	// guarantees a tail layer exists, so the manual pass must fold it;
	// and if no stable rebuild happened live, the big PDT now holds the
	// whole storm — far past the tiny threshold — so the pass must
	// rebuild too. Either way both counters end nonzero,
	// deterministically — with the background mover stopped first: a
	// manual pass that loses its fold to a concurrent tick returns
	// without attempting the rebuild.
	db.SetMoverInterval(0)
	if _, err := db.Exec(fmt.Sprintf(`INSERT INTO pts VALUES (%d, 0.5, 'w'), (%d, 0.5, 'w')`,
		soakKeyBase-1, soakKeyBase-1)); err != nil {
		t.Fatal(err)
	}
	want += 2
	if err := db.MoveTuples(); err != nil {
		t.Fatal(err)
	}
	st := db.MoverStats()
	if st.Folds == 0 {
		t.Fatalf("mover never folded a tail stack: %+v", st)
	}
	if st.Rebuilds == 0 {
		t.Fatalf("mover never rebuilt the stable image: %+v", st)
	}
	res, err = db.Query(`SELECT COUNT(*) FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I64; got != want {
		t.Fatalf("row count after final mover pass %d, want %d", got, want)
	}
}

package vectorwise

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"vectorwise/internal/algebra"
	"vectorwise/internal/core"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// ErrRowsClosed is returned by Rows methods called after Close.
var ErrRowsClosed = errors.New("vectorwise: Rows is closed")

// Rows is a streaming result cursor: the pull-based vectorized pipeline
// exposed directly, instead of drained into a boxed []vtypes.Row. A Rows
// executes lazily — each NextBatch (or the Next/Scan pair) pulls one
// ~1K-row vector.Batch through the operator tree, so a consumer that
// stops early never pays for rows it did not read, and a result of any
// size streams in O(vector) memory.
//
// # Snapshot tenure
//
// An open Rows holds no DB lock. QueryContext pins the current epoch
// snapshot — an immutable image of every table's committed state — and
// the cursor streams against it until Close, however slowly it is
// consumed. Concurrent statements from other goroutines proceed
// freely, writers included: DML commits new delta layers and the tuple
// mover reorganizes storage without waiting for open cursors, and the
// cursor keeps seeing exactly the state of its pinned epoch
// ([Rows.Epoch]). Issuing statements from the goroutine holding an
// open Rows is likewise safe (the shared read lock is held only inside
// QueryContext itself, never across a cursor's lifetime).
//
// Next returning false and NextBatch returning (nil, nil) auto-close
// the cursor, so a fully drained Rows releases its snapshot without an
// explicit Close; calling Close anyway is cheap and always correct (it
// is idempotent). Close on a partially consumed cursor aborts the
// statement (operators observe an internal cancel), so stopping early
// never executes the rest of the query. Close cursors promptly anyway:
// the snapshot pins superseded stable images and delta layers in
// memory until the last cursor on its epoch closes.
//
// # Cancellation
//
// The context passed to QueryContext is checked between batches by every
// operator in the compiled tree, including exchange workers. Once it is
// done, the in-flight statement — scan, join build, aggregation,
// sort — stops at the next vector boundary and the cursor's error is the
// context's error. The cursor auto-closes, releasing its snapshot.
//
// Rows is not safe for concurrent use by multiple goroutines.
type Rows struct {
	db   *DB
	snap *dbSnapshot
	plan algebra.Node // the bound plan op was compiled from
	op   core.Operator
	// cancel aborts the statement's internal context on Close, so a
	// cursor abandoned mid-result stops its operators (including
	// exchange producers) at the next vector boundary instead of
	// letting them run the statement to completion during Close.
	cancel context.CancelFunc

	schema *vtypes.Schema
	// stats counts this statement's row-group outcomes; folded into
	// the DB's cumulative counters on Close.
	stats *storage.ScanStats
	// hashSink collects this statement's hash-table stats (recorded as
	// each agg/join operator closes); folded into the DB's cumulative
	// counters on Close.
	hashSink *core.HashStatsSink

	// filled is NextBatch's batch of values for coded columns, made at
	// the first batch that has one.
	filled *filledBatch

	batch  *vector.Batch // current batch (operator-owned, valid until next pull)
	pos    int           // next unread live row in batch
	cur    int           // physical index of the current row (after Next)
	hasRow bool
	err    error
	closed bool
}

// openRowsLocked compiles and opens a bound plan into a cursor. The
// caller holds db.mu.RLock (and releases it itself after this returns,
// success or error). The cursor pins the current epoch snapshot and
// compiles scans against it, so it needs no lock after this; Close
// (or draining to the end) drops the snapshot reference.
func (db *DB) openRowsLocked(ctx context.Context, plan algebra.Node) (*Rows, error) {
	// The statement runs under a child context so Close can abort it:
	// the caller's ctx cancels it from outside, Close from inside.
	ctx, cancel := context.WithCancel(ctx)
	snap := db.acquireSnapshot()
	stats := &storage.ScanStats{}
	hashSink := &core.HashStatsSink{}
	op, err := xcompile.Compile(plan, db.cat, xcompile.Options{
		Fetch:     db.buf,
		Ctx:       ctx,
		ScanStats: stats,
		HashStats: hashSink,
		NoPrune:   db.noSkip,
		Resolver:  snap,
	})
	if err != nil {
		cancel()
		snap.unref()
		return nil, err
	}
	if err := op.Open(); err != nil {
		op.Close()
		cancel()
		snap.unref()
		return nil, err
	}
	return &Rows{db: db, snap: snap, plan: plan, op: op, cancel: cancel, schema: plan.Schema(), stats: stats, hashSink: hashSink}, nil //vw:owns Rows.close releases the snapshot reference
}

// Epoch returns the data epoch this cursor pinned at QueryContext time.
// Every row the cursor ever yields reflects exactly the committed state
// of that epoch, regardless of concurrent writes; two cursors reporting
// the same epoch see identical data.
func (r *Rows) Epoch() uint64 { return r.snap.epoch }

// ScanStats returns this statement's row-group counters so far: groups
// the scans decompressed vs groups min/max data skipping pruned. On a
// selective range query over clustered data, GroupsPruned > 0 is the
// signature of working predicate pushdown. Valid during iteration and
// after Close.
func (r *Rows) ScanStats() storage.ScanStatsSnapshot { return r.stats.Snapshot() }

// HashStats returns the hash-table stats of every HashAggregate and
// HashJoin this statement ran: directory slots, entries, load, resize
// count, probe-length p50/max and the table-bound phase time. Each
// operator records when it closes, so the full set is available once
// the cursor is drained (or Closed); a partially consumed cursor
// reports only the operators that have finished.
func (r *Rows) HashStats() []core.HashTableStat { return r.hashSink.Snapshot() }

// Columns returns the output column names.
func (r *Rows) Columns() []string {
	cols := make([]string, r.schema.Len())
	for i := range cols {
		cols[i] = r.schema.Col(i).Name
	}
	return cols
}

// Schema returns the output schema (names and kinds) — what columnar
// consumers need to interpret NextBatch vectors.
func (r *Rows) Schema() *vtypes.Schema { return r.schema }

// NextBatch returns the next vector batch, or (nil, nil) at end of
// stream (at which point the cursor has auto-closed). The batch is owned
// by the engine and valid only until the next NextBatch/Next/Close on
// this cursor; consumers that retain data across calls must copy it.
// This is the zero-boxing path: batch vectors are the engine's own
// typed arrays (often zero-copy views of decompressed storage chunks).
// A VARCHAR vector always holds its strings in Str and a DOUBLE its
// values in F64: where the engine's vector is coded (see package vector),
// the live rows' values are read through the dictionary into a vector the
// cursor owns.
func (r *Rows) NextBatch() (*vector.Batch, error) {
	b, err := r.NextCodedBatch()
	if b == nil || !slices.ContainsFunc(b.Vecs, func(v *vector.Vector) bool { return v.Codes != nil }) {
		return b, err
	}
	f := r.filled
	if f == nil {
		f = &filledBatch{vals: make([]vector.Vector, len(b.Vecs)), out: vector.Batch{Vecs: make([]*vector.Vector, len(b.Vecs))}}
		r.filled = f
	}
	for c, v := range b.Vecs {
		f.out.Vecs[c] = f.vals[c].FillFrom(v, b.Sel, b.N)
	}
	f.out.Sel, f.out.N = b.Sel, b.N
	return &f.out, nil
}

// filledBatch is the batch NextBatch hands out in place of one with coded
// columns: their live rows' values, in vectors the cursor owns.
type filledBatch struct {
	vals []vector.Vector
	out  vector.Batch
}

// NextCodedBatch is NextBatch without the fill: a VARCHAR or DOUBLE
// vector of the batch may be coded, holding Codes and a dictionary and no
// Str or F64, and is read with vector.Vector.StrAt, F64At or Get.
// Encoders that copy values out a row at a time use it.
func (r *Rows) NextCodedBatch() (*vector.Batch, error) {
	if r.closed {
		if r.err != nil {
			return nil, r.err
		}
		return nil, ErrRowsClosed
	}
	r.hasRow = false
	for {
		b, err := r.op.Next()
		if err != nil {
			r.err = err
			r.close()
			return nil, err
		}
		if b == nil {
			r.close()
			return nil, nil
		}
		if b.N == 0 {
			continue
		}
		r.batch = b
		r.pos = b.N // row-at-a-time state: mark consumed for Next()
		return b, nil
	}
}

// Next advances to the next row, reporting whether one is available.
// It returns false at end of stream or on error (check Err); in both
// cases the cursor has auto-closed and its snapshot is released.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	for r.batch == nil || r.pos >= r.batch.N {
		b, err := r.op.Next()
		if err != nil {
			r.err = err
			r.close()
			return false
		}
		if b == nil {
			r.close()
			return false
		}
		if b.N == 0 {
			continue
		}
		r.batch, r.pos = b, 0
	}
	r.cur = r.batch.LiveIndex(r.pos)
	r.pos++
	r.hasRow = true
	return true
}

// Scan copies the current row (positioned by Next) into dest, one
// pointer per output column: *int64, *int, *float64, *string, *bool,
// *time.Time (DATE), *vtypes.Value, or *any. Destination kinds are
// checked: BIGINT widens into *float64 and DATE formats into *string
// ("YYYY-MM-DD"), but any other mismatch errors rather than coercing.
// A NULL scans as nil into *any, as a null Value into *vtypes.Value,
// and errors for the typed pointers.
func (r *Rows) Scan(dest ...any) error {
	if r.err != nil {
		return r.err
	}
	if r.closed {
		return ErrRowsClosed
	}
	if !r.hasRow {
		return errors.New("vectorwise: Scan called without a successful Next")
	}
	if len(dest) != r.schema.Len() {
		return fmt.Errorf("vectorwise: Scan expects %d destinations, got %d", r.schema.Len(), len(dest))
	}
	for c, d := range dest {
		if err := scanValue(r.batch.Vecs[c], r.cur, d); err != nil {
			return fmt.Errorf("vectorwise: Scan column %q: %w", r.schema.Col(c).Name, err)
		}
	}
	return nil
}

// scanValue assigns vector position ix to the destination pointer.
func scanValue(v *vector.Vector, ix int, dest any) error {
	isNull := v.Nulls != nil && v.Nulls[ix]
	switch d := dest.(type) {
	case *any:
		if isNull {
			*d = nil
			return nil
		}
		switch v.Kind {
		case vtypes.KindDate:
			y, m, day := vtypes.CivilFromDays(v.I64[ix])
			*d = time.Date(y, time.Month(m), day, 0, 0, 0, 0, time.UTC)
		default:
			switch v.Kind.StorageClass() {
			case vtypes.ClassI64:
				*d = v.I64[ix]
			case vtypes.ClassF64:
				*d = v.F64At(ix)
			case vtypes.ClassStr:
				*d = v.StrAt(ix)
			case vtypes.ClassBool:
				*d = v.B[ix]
			}
		}
		return nil
	case *vtypes.Value:
		*d = v.Get(ix)
		return nil
	}
	if isNull {
		return errors.New("NULL value; use *any or *vtypes.Value")
	}
	// DATE shares BIGINT's storage class but is its own logical type:
	// it scans as *time.Time, *string ("YYYY-MM-DD") or *any, never as
	// a bare day count through the numeric destinations.
	isDate := v.Kind == vtypes.KindDate
	switch d := dest.(type) {
	case *int64:
		if v.Kind.StorageClass() != vtypes.ClassI64 || isDate {
			return fmt.Errorf("cannot scan %v into *int64", v.Kind)
		}
		*d = v.I64[ix]
	case *int:
		if v.Kind.StorageClass() != vtypes.ClassI64 || isDate {
			return fmt.Errorf("cannot scan %v into *int", v.Kind)
		}
		*d = int(v.I64[ix])
	case *float64:
		switch {
		case v.Kind.StorageClass() == vtypes.ClassF64:
			*d = v.F64At(ix)
		case v.Kind.StorageClass() == vtypes.ClassI64 && !isDate:
			*d = float64(v.I64[ix])
		default:
			return fmt.Errorf("cannot scan %v into *float64", v.Kind)
		}
	case *string:
		switch {
		case v.Kind.StorageClass() == vtypes.ClassStr:
			*d = v.StrAt(ix)
		case isDate:
			*d = vtypes.FormatDate(v.I64[ix])
		default:
			return fmt.Errorf("cannot scan %v into *string", v.Kind)
		}
	case *bool:
		if v.Kind.StorageClass() != vtypes.ClassBool {
			return fmt.Errorf("cannot scan %v into *bool", v.Kind)
		}
		*d = v.B[ix]
	case *time.Time:
		if v.Kind != vtypes.KindDate {
			return fmt.Errorf("cannot scan %v into *time.Time", v.Kind)
		}
		y, m, day := vtypes.CivilFromDays(v.I64[ix])
		*d = time.Date(y, time.Month(m), day, 0, 0, 0, 0, time.UTC)
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
	return nil
}

// Err returns the first error encountered while iterating (including
// the context's error after cancellation). It is valid after Close.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor: it closes the operator tree (joining any
// exchange workers) and drops its snapshot reference — the last cursor
// on a superseded epoch triggers reclamation of stable images that can
// no longer be read. Close is idempotent; only the first call does
// work. The returned error is the operator tree's close error, not the
// iteration error (see Err).
func (r *Rows) Close() error { return r.close() }

func (r *Rows) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.hasRow = false
	r.batch = nil
	// Abort the statement before closing the tree: a partially
	// consumed parallel plan has live exchange producers, and without
	// the cancel they would run the rest of the statement while Close
	// drains them.
	r.cancel()
	err := r.op.Close()
	r.db.scanStats.Add(r.stats.Snapshot())
	r.db.hashStats.Add(r.hashSink.Snapshot())
	r.snap.unref()
	return err
}

// collect drains the cursor into a boxed Result — the compatibility
// bridge DB.Query sits on. It always closes the cursor.
func (r *Rows) collect() (*Result, error) {
	defer r.close()
	res := &Result{Columns: r.Columns()}
	for {
		b, err := r.NextCodedBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return res, nil
		}
		for i := 0; i < b.N; i++ {
			res.Rows = append(res.Rows, b.Row(i))
		}
	}
}

package vector

import "vectorwise/internal/vtypes"

// Batch is the unit passed between vectorized operators: a set of
// equally-long vectors plus an optional selection vector. When Sel is
// nil the batch is dense and rows 0..N-1 are live; otherwise exactly the
// positions Sel[0..N-1] are live. Selection vectors let Select filter
// without copying any payload data — the filtered-out rows simply stop
// being referenced, which is a central X100 trick.
type Batch struct {
	Vecs []*Vector
	// Sel lists live positions in ascending order, or is nil for dense.
	Sel []int32
	// N is the live row count (len(Sel) when Sel != nil).
	N int
	// selBuf is retained so ResetSel can reuse capacity.
	selBuf []int32
}

// NewBatch allocates a batch with one vector per schema column, each of
// capacity cap.
func NewBatch(schema *vtypes.Schema, capacity int) *Batch {
	b := &Batch{Vecs: make([]*Vector, schema.Len())}
	for i, c := range schema.Cols {
		b.Vecs[i] = New(c.Kind, capacity)
	}
	return b
}

// NewBatchOfKinds allocates a batch from explicit kinds.
func NewBatchOfKinds(kinds []vtypes.Kind, capacity int) *Batch {
	b := &Batch{Vecs: make([]*Vector, len(kinds))}
	for i, k := range kinds {
		b.Vecs[i] = New(k, capacity)
	}
	return b
}

// Capacity returns the slot capacity of the batch's vectors (0 if empty).
func (b *Batch) Capacity() int {
	if len(b.Vecs) == 0 {
		return 0
	}
	return b.Vecs[0].Len()
}

// SetDense marks the batch dense with n live rows.
func (b *Batch) SetDense(n int) {
	b.Sel = nil
	b.N = n
}

// MutableSel returns a selection buffer of capacity >= cap, reusing any
// prior buffer. The caller fills it and calls SetSel.
func (b *Batch) MutableSel(capacity int) []int32 {
	if cap(b.selBuf) < capacity {
		b.selBuf = make([]int32, capacity)
	}
	return b.selBuf[:capacity]
}

// SetSel installs sel[:n] as the live set.
func (b *Batch) SetSel(sel []int32, n int) {
	b.Sel = sel[:n]
	b.N = n
}

// LiveIndex returns the physical index of live row i.
func (b *Batch) LiveIndex(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// Row boxes live row i; boundary use only (result sets, tests).
func (b *Batch) Row(i int) vtypes.Row {
	ix := b.LiveIndex(i)
	row := make(vtypes.Row, len(b.Vecs))
	for c, v := range b.Vecs {
		row[c] = v.Get(ix)
	}
	return row
}

// Kinds returns the vector kinds of the batch.
func (b *Batch) Kinds() []vtypes.Kind {
	ks := make([]vtypes.Kind, len(b.Vecs))
	for i, v := range b.Vecs {
		ks[i] = v.Kind
	}
	return ks
}

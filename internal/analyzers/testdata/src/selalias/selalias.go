// Package selalias exercises the shared-Sel mutation rules with a
// structural stand-in for vector.Batch and core.Operator.
package selalias

type Batch struct {
	Sel []int32
	N   int
}

type Operator interface {
	Next() (*Batch, error)
}

type limit struct {
	child Operator
	n     int
}

// Next demonstrates the core.Limit bug class: mutating the child's Sel
// in place instead of installing a private copy.
func (l *limit) Next() (*Batch, error) {
	b, err := l.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if b.N > l.n {
		b.Sel = b.Sel[:l.n]      // want "truncates the child batch's shared Sel in place"
		b.Sel[0] = 0             // want "writes through the child batch's shared Sel slice"
		b.Sel = append(b.Sel, 1) // want "append reuses the child batch's shared Sel backing array"
		b.N = l.n
	}
	return b, nil
}

// NextCopied is the canonical fix: copy the live prefix into a fresh
// slice, then install it. After the re-own, writes are fine.
func (l *limit) NextCopied() (*Batch, error) {
	b, err := l.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if b.N > l.n {
		sel := make([]int32, l.n)
		copy(sel, b.Sel[:l.n])
		b.Sel = sel
		b.Sel[0] = 0 // ok: freshly copied, privately owned
		b.N = l.n
	}
	return b, nil
}

// Aliases of a foreign batch stay foreign.
func (l *limit) NextAliased() (*Batch, error) {
	b, err := l.child.Next()
	if b == nil {
		return nil, err
	}
	c := b
	c.Sel[0] = 0 // want "writes through the child batch's shared Sel slice"
	return c, nil
}

func zeroAll(sel []int32) {
	for i := range sel {
		sel[i] = 0
	}
}

func zeroVia(sel []int32) { zeroAll(sel) }

func sum(sel []int32) int32 {
	var s int32
	for _, v := range sel {
		s += v
	}
	return s
}

// Batch parameters are owned by the caller; handing their Sel to a
// mutating callee (directly or transitively) is flagged, read-only use
// is not.
func reset(b *Batch) {
	zeroAll(b.Sel) // want "passes the child batch's shared Sel to zeroAll"
}

func resetVia(b *Batch) {
	zeroVia(b.Sel) // want "passes the child batch's shared Sel to zeroVia"
}

func total(b *Batch) int32 {
	return sum(b.Sel) // ok: callee only reads
}

// Locally allocated batches are private property.
func fresh(n int) *Batch {
	out := &Batch{Sel: make([]int32, n)}
	out.Sel[0] = 1 // ok: locally allocated
	return out
}

// Suppression works here too.
func trim(b *Batch, n int) {
	//vwlint:ignore selalias caller documents exclusive ownership of this batch
	b.Sel = b.Sel[:n]
}

// A hash join whose probe rows each match at most once passes the probe
// vectors through and narrows them to the matched rows. The narrowing
// must go into the join's own buffer, installed on the join's own output
// batch: compacting the matches into the child's Sel corrupts the child.
type join struct {
	probe Operator
	match func(i int32) bool
	idx   []int32 // the join's own selection buffer
	out   Batch
}

func (j *join) NextInPlace() (*Batch, error) {
	b, err := j.probe.Next()
	if err != nil || b == nil {
		return nil, err
	}
	k := 0
	for _, i := range b.Sel[:b.N] {
		if j.match(i) {
			b.Sel[k] = i // want "writes through the child batch's shared Sel slice"
			k++
		}
	}
	b.N = k
	return b, nil
}

func (j *join) NextOwnSel() (*Batch, error) {
	b, err := j.probe.Next()
	if err != nil || b == nil {
		return nil, err
	}
	j.idx = j.idx[:0]
	for _, i := range b.Sel[:b.N] {
		if j.match(i) {
			j.idx = append(j.idx, i) // ok: the join's buffer, not the child's
		}
	}
	j.out.Sel, j.out.N = j.idx, len(j.idx) // ok: the join's own batch
	return &j.out, nil
}

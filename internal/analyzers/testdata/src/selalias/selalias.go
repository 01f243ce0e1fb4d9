// Package selalias exercises the shared-Sel mutation rules with a
// structural stand-in for vector.Batch and core.Operator.
package selalias

type Batch struct {
	Vecs   [][]int64
	Sel    []int32
	N      int
	selBuf []int32
}

// MutableSel hands out the batch's own selection buffer, which Sel
// usually aliases.
func (b *Batch) MutableSel(n int) []int32 {
	if cap(b.selBuf) < n {
		b.selBuf = make([]int32, n)
	}
	return b.selBuf[:n]
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

// A predicate narrows the batch it is handed, writing the survivors into
// b.MutableSel — the buffer b.Sel already aliases after any earlier
// filter.
type Pred interface {
	Filter(b *Batch) error
}

type orPred struct {
	preds []Pred
	view  Batch
	marks []bool
}

// FilterRestoring is the orPred bug: the live set is saved, each disjunct
// filters b itself, and the saved slice — whose backing array the first
// disjunct has overwritten — is assigned back for the next one.
func (p *orPred) FilterRestoring(b *Batch) error {
	origSel := b.Sel
	origN := b.N
	for _, q := range p.preds {
		b.Sel = origSel // want "re-installs origSel, a Sel saved before Filter received the batch"
		b.N = origN
		if err := q.Filter(b); err != nil {
			return err
		}
		for _, i := range b.Sel[:b.N] {
			p.marks[i] = true
		}
	}
	return nil
}

// notRestoring: straight-line, and through MutableSel on the batch itself.
func notRestoring(b *Batch, inner Pred) error {
	saved := b.Sel[:b.N]
	if err := inner.Filter(b); err != nil {
		return err
	}
	b.Sel = saved // want "re-installs saved, a Sel saved before Filter received the batch"
	orig := b.Sel
	res := b.MutableSel(len(saved))
	res[0] = 0
	b.Sel = orig // want "re-installs orig, a Sel saved before MutableSel received the batch"
	return nil
}

// FilterOnView is the fix: every disjunct filters a view that shares the
// vectors and owns its selection buffer; b.Sel is read, never assigned.
func (p *orPred) FilterOnView(b *Batch) error {
	for _, q := range p.preds {
		p.view.Vecs, p.view.Sel, p.view.N = b.Vecs, b.Sel, b.N
		if err := q.Filter(&p.view); err != nil {
			return err
		}
		for _, i := range p.view.Sel[:p.view.N] {
			p.marks[i] = true
		}
	}
	return nil
}

// Saving and restoring around calls that never see the batch is fine.
func peek(b *Batch, n int) int32 {
	orig := b.Sel
	b.Sel = b.Sel[:n] //vwlint:ignore selalias restored two lines down
	s := sum(b.Sel)
	b.Sel = orig // ok: nothing that could reach MutableSel ran in between
	return s
}

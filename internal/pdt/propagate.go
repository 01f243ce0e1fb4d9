package pdt

import "fmt"

// Propagate folds a stack of small PDTs down onto a copy of the big PDT
// they were stacked on, producing a single PDT over the big one's stable
// image. This is the commit-time operation of the paper's layered PDT
// design, and the fold of a pinned layer stack into one read layer.
//
// smalls are bottom-first: smalls[0] is stacked on big, smalls[i] on the
// output image of everything below it. The copy is made once and each
// small replays onto it in order, so folding k layers costs one Clone
// of big plus the layers' own entries, not k Clones.
//
// A small PDT's SIDs address the output image below it — exactly the
// coordinate system of the RID API of the running fold — so each small
// entry replays through Insert/Delete/Modify. Entries are applied in
// reverse sequence order: applying a change never disturbs the
// positions of rows before it, so earlier (smaller-position) entries
// remain addressable; and reverse replay of equal-position inserts
// restores their original relative order.
//
// With no smalls, big itself is returned. Neither big nor the smalls
// are modified.
func Propagate(big *PDT, smalls ...*PDT) (*PDT, error) {
	if len(smalls) == 0 {
		return big, nil
	}
	out := big.Clone()
	for i, small := range smalls {
		if out.VisibleRows() != small.StableRows() {
			return nil, fmt.Errorf("pdt: propagate mismatch at layer %d: output below %d rows, layer stable %d",
				i, out.VisibleRows(), small.StableRows())
		}
		if err := out.replay(small); err != nil {
			return nil, fmt.Errorf("pdt: propagate layer %d: %w", i, err)
		}
	}
	return out, nil
}

// replay applies small's entries to p, last entry first.
func (p *PDT) replay(small *PDT) error {
	for ci := len(small.chunks) - 1; ci >= 0; ci-- {
		ents := small.chunks[ci].entries
		for ei := len(ents) - 1; ei >= 0; ei-- {
			e := &ents[ei]
			switch e.Type {
			case Ins:
				if err := p.Insert(e.SID, e.Row); err != nil {
					return fmt.Errorf("insert: %w", err)
				}
			case Del:
				if err := p.Delete(e.SID); err != nil {
					return fmt.Errorf("delete: %w", err)
				}
			case Mod:
				for _, mc := range e.Mods {
					if err := p.Modify(e.SID, mc.Col, mc.Val); err != nil {
						return fmt.Errorf("modify: %w", err)
					}
				}
			}
		}
	}
	return nil
}

package pdt

import "sort"

// Coordinate translation between a PDT layer's stable positions (SIDs)
// and its output image (RIDs), for data skipping over stacked layers.

// StartRID returns the RID of the first image row belonging to stable
// position sid: the first Ins at sid if any, else stable sid itself.
// It is the coordinate translation data skipping uses to re-express a
// stable row-group range in the output image of a PDT layer.
func (p *PDT) StartRID(sid int64) int64 { return p.startRID(sid) }

// HasEntriesIn reports whether any delta entry annotates a stable
// position in [lo, hi). A row group whose global position range is
// entry-free in every PDT layer can be skipped by statistics without
// disturbing the positional merge: the merge scan just advances its
// stable cursor across the gap (no inserts to inject, no deletes or
// modifications to apply, and downstream layers see an equally clean
// RID gap). Entries at exactly hi belong to the next group's range —
// an Ins at hi injects before the next group's first row.
func (p *PDT) HasEntriesIn(lo, hi int64) bool {
	if lo >= hi {
		return false
	}
	// First chunk whose last entry reaches lo.
	ci := sort.Search(len(p.chunks), func(i int) bool {
		c := p.chunks[i].entries
		return c[len(c)-1].SID >= lo
	})
	if ci == len(p.chunks) {
		return false
	}
	ents := p.chunks[ci].entries
	ei := sort.Search(len(ents), func(i int) bool { return ents[i].SID >= lo })
	if ei == len(ents) {
		// Last entry of chunk ci reaches lo per the chunk search, so
		// ei < len(ents) always; guard anyway.
		ci++
		if ci == len(p.chunks) {
			return false
		}
		ents, ei = p.chunks[ci].entries, 0
	}
	return ents[ei].SID < hi
}

package pdt

// Coordinate translation between a PDT layer's stable positions (SIDs)
// and its output image (RIDs), for data skipping over stacked layers.

// StartRID returns the RID of the first image row belonging to stable
// position sid: the first Ins at sid if any, else stable sid itself.
// It is the coordinate translation data skipping uses to re-express a
// stable row-group range in the output image of a PDT layer.
func (p *PDT) StartRID(sid int64) int64 { return p.startRID(sid) }

// ColSet is a set of table columns as a bitmask: column c is bit c, and
// columns from 63 on share bit 63, which errs toward membership.
type ColSet uint64

// With returns s plus column c.
func (s ColSet) With(c int) ColSet { return s | 1<<min(c, 63) }

// Has reports whether column c is in s.
func (s ColSet) Has(c int) bool { return s&(1<<min(c, 63)) != 0 }

// ModifiesIn reports whether a Mod entry of any of the table columns
// cols annotates a stable position in [lo, hi): the one delta that can
// make a row of the range match a filter on cols that its stable values
// refute. It is the question data skipping asks of each layer about a
// row group its Skip would refute by min/max or narrow by search. Ins
// rows carry whole tuples and are emitted from a skipped range for the
// filter to judge, and a Del or a Mod of other columns leaves a refuted
// row refuted, so only such a Mod keeps the group from being skipped. Entries at exactly hi
// belong to the next group's range.
func (p *PDT) ModifiesIn(lo, hi int64, cols ColSet) bool {
	_, ci, ei := p.seek(lo)
	for ; ci < len(p.chunks); ci, ei = ci+1, 0 {
		ents := p.chunks[ci].entries
		for ; ei < len(ents); ei++ {
			e := &ents[ei]
			if e.SID >= hi {
				return false
			}
			if e.Type != Mod {
				continue
			}
			for _, m := range e.Mods {
				if cols.Has(m.Col) {
					return true
				}
			}
		}
	}
	return false
}

// Package vector implements the unit of data flow of the X100 engine:
// small typed arrays ("vectors") of roughly a thousand values, processed
// whole by each primitive. This strikes the balance the paper describes
// between tuple-at-a-time pipelining (interpretation overhead on every
// tuple) and MonetDB-style full materialization (memory traffic for
// whole-column intermediates).
//
// A VARCHAR or DOUBLE vector read from a dictionary-coded (PDICT) chunk,
// whose dictionary holds at most 256 entries, is *coded*: it holds that
// chunk's one-byte Codes and its dictionary, the string dictionary
// Shared.Dict (Str == nil, row i is Dict[Codes[i]]) or the float
// dictionary Shared.DictF64 (F64 == nil, row i is DictF64[Codes[i]]).
// Only storage.Table.DecodeChunk makes one from a chunk, and only the
// storage scanner's views pass it on; the one operator output that is
// coded is a DOUBLE arithmetic map over one coded column and constants
// (expr.Arith), which maps the dictionary and keeps the codes.
//
// A VARCHAR vector read from a plain (CodecPlainStr) chunk is an *arena*:
// Arrow's variable-length layout, one offsets array Off and one bytes
// buffer Shared.Bytes, row i being Bytes[Off[i]:Off[i+1]] (Str == nil,
// Codes == nil). Bytes is the table image's own payload, so the arena
// holds 4 bytes a row and no string. As with codes, only
// storage.Table.DecodeChunk makes one, and only the scanner's views pass it
// on.
//
// A VARCHAR vector read from an FSST (CodecFSST) chunk is an *FSST
// arena*: an arena whose Bytes are each row's codes in the table image,
// and whose Shared.Symbols is the chunk's symbol table, which decodes
// them (compress.Symbols). No reader decodes it whole. GatherFrom of an
// FSST arena makes another: the gathered rows' codes in Bytes the
// destination owns and reuses from gather to gather, under the source's
// Symbols; the destination keeps its Str, emptied, for a later write to
// take back, and that empty Str marks the bytes as its own. NewCopy makes
// one that nothing reuses (Xchg's copies).
//
// So storage never hands a scan a []string for a VARCHAR chunk: every
// VARCHAR chunk is coded, an arena or an FSST arena. Str holds computed
// strings, literals and the rows of a PDT, plus the vectors of
// storage.DecodedFetcher, the reference engines' oracle path, which
// decodes every chunk to values.
//
// Every other vector an operator writes has Codes == nil and Off == nil,
// and holds its values. Readers of a VARCHAR or DOUBLE vector fall into
// three classes (docs/ARCHITECTURE.md lists them): code-aware ones work on
// the codes or the arena's bytes, an FSST arena's codes included (its
// predicates with constants: =, <>, IN and LIKE on the codes, the others
// on the live rows decoded); copying and boxing ones (Len, Get, StrAt,
// F64At, CopyFrom, GatherFrom) read through the dictionary or the
// offsets; computing ones fill the live rows they compute on into a
// buffer of their own (FillFrom) and run their kernel on it. None takes a
// length from len(Str) or len(F64), or ranges over them, of a vector that
// can be coded or an arena: a nil payload fails with an index panic,
// never as zero rows.
//
// One rule says which strings a reader may keep: a view (a string over
// bytes it does not own, made only in arena.go) is kept only of bytes
// that nothing writes again while it is held. Those are a table image's
// payload (an arena's rows), a stop-and-go buffer's chunk once it has
// handed out a view (core's colBuf: its retain and reset then copy the
// rows they keep), and a buffer decoded for one read. An FSST arena's
// Bytes may be a gather's, written again by the next, so no view of them
// is kept: code-aware readers read the codes within the batch and key
// what they keep per chunk by Symbols (expr.fsstConsts,
// primitives.LikeCodes); GatherFrom, NewCopy and colBuf.append copy the
// codes; the others decode the rows they read into a buffer allocated
// for that read (FillDecoded into one its caller reuses, and copies from:
// core's key table). A view keeps its whole buffer alive, so a string
// handed to a caller of the public API is a copy (vectorwise.Rows).
//
// A BIGINT or DOUBLE vector read from a plain chunk is an ordinary vector
// of values whose I64 or F64 is a view of the table image (FixedView, in
// arena.go too). Like every chunk a scan fetches, it is read-only: a
// write to it would write the image.
//
// A BIGINT or DATE chunk decoded from a PFOR, PFOR-DELTA or RLE image
// whose range fits 16 bits is *narrow*: I64 is nil, and row i is
// Shared.Base (the chunk's minimum) plus its unsigned offset, of 1 or 2
// bytes (Shared.U8 or U16). storage.Table.DecodeChunk makes one
// and the buffer pool caches it; unlike a coded vector or an arena it
// never leaves the storage scanner, which widens one vector's rows at a
// time into int64s of its own (storage.Scanner.Next). No operator, kernel
// or reader here reads a narrow vector.
package vector

import (
	"fmt"

	"vectorwise/internal/compress"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vtypes"
)

// DefaultSize is the default number of values per vector. X100 found
// ~1K values per vector amortizes interpretation overhead while keeping
// the working set of a query pipeline inside the CPU cache; experiment
// F1 reproduces that curve.
const DefaultSize = 1024

// Vector is a typed array of values with an optional null indicator.
// Exactly one of the payload slices is non-nil, selected by the storage
// class of Kind. Kernels index the payload slices directly: no interface
// dispatch, no boxing.
type Vector struct {
	Kind vtypes.Kind
	// I64 backs ClassI64 kinds (BIGINT, DATE).
	I64 []int64
	// F64 backs DOUBLE.
	F64 []float64
	// Str backs VARCHAR.
	Str []string
	// B backs BOOLEAN.
	B []bool
	// Nulls, when non-nil, marks NULL positions; the slot under a NULL
	// holds the kind's safe value (zero, ""). IS [NOT] NULL, aggregate
	// arguments, join keys, NULL-padded outer-join rows and the result
	// encoders read it. Other kernels compute on the safe value: there is
	// no rewrite yet that decomposes NULLable operations into plain ones.
	Nulls []bool
	// Codes, when non-nil, make the vector coded (see the package doc):
	// slot i of a VARCHAR holds Shared.Dict[Codes[i]] and Str is nil; slot
	// i of a DOUBLE holds Shared.DictF64[Codes[i]] and F64 is nil.
	Codes []uint8
	// Off, when non-nil, makes a VARCHAR vector an arena (see the package
	// doc): slot i holds Shared.Bytes[Off[i]:Off[i+1]], Off has one entry
	// more than the vector has slots, Codes is nil and Str is nil, or
	// empty in an FSST arena GatherFrom made (see owns).
	Off []uint32
	// Shared is what a coded vector's codes or an arena's offsets index.
	// Codes, Off and Shared are read-only; writers clear them.
	Shared *Shared
}

// Shared is the chunk-wide side of a coded or arena vector: the
// dictionary its codes index (Dict for VARCHAR, DictF64 for DOUBLE) or
// the bytes an arena's offsets index. One decoded chunk has one, which
// every view of the chunk points to, so a view's own part is its codes or
// offsets alone; holding it by pointer keeps a Vector smaller than one
// with its slices inline.
//
// Of a narrow chunk (see the package doc) Shared holds every row: Base
// plus one offset a row in exactly one of U8 and U16.
type Shared struct {
	Dict    []string
	DictF64 []float64
	Bytes   []byte
	// Symbols, when non-nil, makes an arena an FSST arena: Bytes holds
	// each row's codes, which the table decodes.
	Symbols *compress.Symbols
	Base    int64
	U8      []uint8
	U16     []uint16
}

// Narrow reports whether v is a narrow chunk: I64 is nil and its rows
// are Shared's offsets over Shared.Base.
func (v *Vector) Narrow() bool {
	return v.Shared != nil && (v.Shared.U8 != nil || v.Shared.U16 != nil)
}

// New allocates a vector of the given kind and capacity n.
func New(kind vtypes.Kind, n int) *Vector {
	v := &Vector{Kind: kind}
	switch kind.StorageClass() {
	case vtypes.ClassI64:
		v.I64 = make([]int64, n)
	case vtypes.ClassF64:
		v.F64 = make([]float64, n)
	case vtypes.ClassStr:
		v.Str = make([]string, n)
	case vtypes.ClassBool:
		v.B = make([]bool, n)
	default:
		panic(fmt.Sprintf("vector: invalid kind %v", kind))
	}
	return v
}

// Len returns the capacity of the payload (number of slots).
func (v *Vector) Len() int {
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		return len(v.I64)
	case vtypes.ClassF64:
		if v.Codes != nil {
			return len(v.Codes)
		}
		return len(v.F64)
	case vtypes.ClassStr:
		if v.Codes != nil {
			return len(v.Codes)
		}
		if v.Off != nil {
			return len(v.Off) - 1
		}
		return len(v.Str)
	case vtypes.ClassBool:
		return len(v.B)
	}
	return 0
}

// StrAt returns the string in slot i of a VARCHAR vector, read through
// the dictionary when v is coded, and a view of its bytes when v is an
// arena.
func (v *Vector) StrAt(i int) string {
	if v.Codes != nil {
		return v.Shared.Dict[v.Codes[i]]
	}
	if v.Off != nil {
		d := []string{""}
		CompactArena(d, v.Off[i:], v.Shared, nil)
		return d[0]
	}
	return v.Str[i]
}

// Packed reports whether v's values are not in its payload slice: it is
// coded or an arena. A computing reader fills such a vector (FillFrom).
func (v *Vector) Packed() bool { return v.Codes != nil || v.Off != nil }

// FSST reports whether v is an FSST arena.
func (v *Vector) FSST() bool { return v.Off != nil && v.Shared.Symbols != nil }

// F64At returns the value in slot i of a DOUBLE vector, read through the
// dictionary when v is coded.
func (v *Vector) F64At(i int) float64 {
	if v.Codes != nil {
		return v.Shared.DictF64[v.Codes[i]]
	}
	return v.F64[i]
}

// uncode makes v hold its own values: the slots written no longer read
// through a dictionary or an arena. A vector GatherFrom made an FSST arena
// takes back its Str.
func (v *Vector) uncode() {
	if v.owns() {
		v.Str = v.Str[:cap(v.Str)]
	}
	v.Codes, v.Off, v.Shared = nil, nil, nil
}

// owns reports whether v is an FSST arena GatherFrom made, whose bytes
// are its own: it kept its Str, emptied (len 0, so an index into it still
// fails), for a later write.
func (v *Vector) owns() bool { return v.Off != nil && v.Str != nil }

// EnsureNulls materializes the null indicator slice (all false) if absent.
func (v *Vector) EnsureNulls() {
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.Len())
	}
}

// Get boxes the value at index i. Only boundaries (result output, tests,
// baseline engines) call this; kernels never do.
func (v *Vector) Get(i int) vtypes.Value {
	if v.Nulls != nil && v.Nulls[i] {
		return vtypes.NullValue(v.Kind)
	}
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		return vtypes.Value{Kind: v.Kind, I64: v.I64[i]}
	case vtypes.ClassF64:
		return vtypes.Value{Kind: v.Kind, F64: v.F64At(i)}
	case vtypes.ClassStr:
		return vtypes.Value{Kind: v.Kind, Str: v.StrAt(i)}
	case vtypes.ClassBool:
		return vtypes.Value{Kind: v.Kind, B: v.B[i]}
	}
	panic("vector: invalid kind")
}

// Set stores a boxed value at index i (boundary use only).
func (v *Vector) Set(i int, val vtypes.Value) {
	v.uncode()
	if val.Null {
		v.EnsureNulls()
		v.Nulls[i] = true
		// Write the storage-class zero as the "safe value" the paper
		// describes, so NULL-oblivious kernels stay well-defined.
		switch v.Kind.StorageClass() {
		case vtypes.ClassI64:
			v.I64[i] = 0
		case vtypes.ClassF64:
			v.F64[i] = 0
		case vtypes.ClassStr:
			v.Str[i] = ""
		case vtypes.ClassBool:
			v.B[i] = false
		}
		return
	}
	if v.Nulls != nil {
		v.Nulls[i] = false
	}
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		v.I64[i] = val.I64
	case vtypes.ClassF64:
		v.F64[i] = val.F64
	case vtypes.ClassStr:
		v.Str[i] = val.Str
	case vtypes.ClassBool:
		v.B[i] = val.B
	}
}

// CopyFrom copies n values from src (dense, starting at srcOff) into v
// starting at dstOff, reading a coded src through its dictionary and an
// arena's rows as views.
func (v *Vector) CopyFrom(src *Vector, srcOff, dstOff, n int) {
	v.uncode()
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		copy(v.I64[dstOff:dstOff+n], src.I64[srcOff:srcOff+n])
	case vtypes.ClassF64:
		copyCoded(v.F64[dstOff:dstOff+n], src.F64, src.Codes, src.DictF64(), srcOff)
	case vtypes.ClassStr:
		if src.Off != nil {
			CompactArena(v.Str[dstOff:dstOff+n], src.Off[srcOff:], src.Shared, nil)
		} else {
			copyCoded(v.Str[dstOff:dstOff+n], src.Str, src.Codes, src.Dict(), srcOff)
		}
	case vtypes.ClassBool:
		copy(v.B[dstOff:dstOff+n], src.B[srcOff:srcOff+n])
	}
	if src.Nulls != nil {
		v.EnsureNulls()
		copy(v.Nulls[dstOff:dstOff+n], src.Nulls[srcOff:srcOff+n])
	} else if v.Nulls != nil {
		for i := dstOff; i < dstOff+n; i++ {
			v.Nulls[i] = false
		}
	}
}

// GatherFrom copies src[sel[i]] into v[i] for i in [0,len(sel)) — the
// compaction step that turns a selection vector back into a dense vector.
// A coded src is read through its dictionary, a plain arena's rows as
// views. Of an FSST arena v becomes an FSST arena under src's symbol
// table, of the rows' codes copied into bytes v owns and reuses, and keeps
// its slots: those past len(sel) are empty.
func (v *Vector) GatherFrom(src *Vector, sel []int32) {
	if src.FSST() {
		v.gatherCodes(src, sel, len(sel))
		v.gatherNulls(src, sel)
		return
	}
	v.uncode()
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		d, s := v.I64, src.I64
		for i, ix := range sel {
			d[i] = s[ix]
		}
	case vtypes.ClassF64:
		gatherCoded(v.F64, src.F64, src.Codes, src.DictF64(), sel)
	case vtypes.ClassStr:
		if src.Off != nil {
			CompactArena(v.Str[:len(sel)], src.Off, src.Shared, sel)
		} else {
			gatherCoded(v.Str, src.Str, src.Codes, src.Dict(), sel)
		}
	case vtypes.ClassBool:
		d, s := v.B, src.B
		for i, ix := range sel {
			d[i] = s[ix]
		}
	}
	v.gatherNulls(src, sel)
}

// gatherNulls is GatherFrom's copy of the null indicators.
func (v *Vector) gatherNulls(src *Vector, sel []int32) {
	if src.Nulls != nil {
		v.EnsureNulls()
		for i, ix := range sel {
			v.Nulls[i] = src.Nulls[ix]
		}
	} else if v.Nulls != nil {
		for i := range sel {
			v.Nulls[i] = false
		}
	}
}

// gatherCodes makes v an FSST arena of the rows sel[:n] of the FSST arena
// src (rows [0, n) when sel is nil), under src's symbol table: their codes
// are copied into bytes v owns, reused from gather to gather, and the Str
// v held is emptied for a later write. v keeps as many slots as it had, at
// least n; those past n are empty.
func (v *Vector) gatherCodes(src *Vector, sel []int32, n int) {
	slots := max(n, v.Len())
	if !v.owns() {
		v.Codes, v.Off, v.Str, v.Shared = nil, nil, v.Str[:0], new(Shared)
	}
	sh := v.Shared
	row := func(k int) int32 {
		if sel == nil {
			return int32(k)
		}
		return sel[k]
	}
	size := 0
	for k := range n {
		i := row(k)
		size += int(src.Off[i+1] - src.Off[i])
	}
	off := grow(v.Off, slots+1, slots+1)
	if cap(sh.Bytes) < size {
		sh.Bytes = make([]byte, 0, max(size, 2*cap(sh.Bytes)))
	}
	codes := sh.Bytes[:0]
	for k := range n {
		i := row(k)
		off[k] = uint32(len(codes))
		codes = append(codes, src.Shared.Bytes[src.Off[i]:src.Off[i+1]]...)
	}
	for k := n; k <= slots; k++ {
		off[k] = uint32(len(codes))
	}
	sh.Bytes, sh.Symbols, v.Off = codes, src.Shared.Symbols, off
}

// NewCopy returns a new dense vector of src's live rows sel[:n] (rows [0,
// n) when sel is nil) that shares no buffer src's writer reuses: what
// GatherFrom or CopyFrom copies, and an FSST arena as an FSST arena of
// codes of its own.
func NewCopy(src *Vector, sel []int32, n int) *Vector {
	if !src.FSST() {
		v := New(src.Kind, n)
		if sel == nil {
			v.CopyFrom(src, 0, 0, n)
		} else {
			v.GatherFrom(src, sel[:n])
		}
		return v
	}
	v := &Vector{Kind: src.Kind}
	v.gatherCodes(src, sel, n)
	if src.Nulls != nil {
		v.Nulls = make([]bool, n)
		for k := range v.Nulls {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			v.Nulls[k] = src.Nulls[i]
		}
	}
	return v
}

// Dict returns a coded VARCHAR vector's dictionary, nil when v is not
// coded.
func (v *Vector) Dict() []string {
	if v.Shared == nil {
		return nil
	}
	return v.Shared.Dict
}

// DictF64 returns a coded DOUBLE vector's dictionary, nil when v is not
// coded.
func (v *Vector) DictF64() []float64 {
	if v.Shared == nil {
		return nil
	}
	return v.Shared.DictF64
}

// copyCoded copies len(d) values from srcOff on: of vals, or read through
// dict when codes is non-nil.
func copyCoded[T any](d, vals []T, codes []uint8, dict []T, srcOff int) {
	if codes == nil {
		copy(d, vals[srcOff:srcOff+len(d)])
		return
	}
	primitives.CompactCodes(d, codes[srcOff:], dict, nil, len(d))
}

// gatherCoded sets d[i] to row sel[i] of vals, or of codes read through
// dict when codes is non-nil.
func gatherCoded[T any](d, vals []T, codes []uint8, dict []T, sel []int32) {
	if codes == nil {
		for i, ix := range sel {
			d[i] = vals[ix]
		}
		return
	}
	primitives.CompactCodes(d, codes, dict, sel, len(sel))
}

// FillFrom is how an operator that computes on strings or DOUBLEs reads a
// vector that may be coded or an arena. It returns src itself when src is
// neither (Packed). Otherwise it writes the values of src's live rows
// sel[:n] (ascending, as every selection is; rows [0, n) when sel is nil),
// an arena's as views, into the same slots of buf, a vector the operator
// owns and reuses from batch to batch, and
// returns buf, which shares src's null indicator. buf's values reach only
// as far as the last live row, so a few rows early in a batch cost a few
// slots; they grow as later batches need. Slots between live rows hold
// whatever an earlier batch left there. An FSST arena's rows are decoded
// into a buffer allocated for the call.
func (buf *Vector) FillFrom(src *Vector, sel []int32, n int) *Vector {
	v, _ := buf.fill(src, sel, n, nil)
	return v
}

// FillDecoded is FillFrom for a caller that reads the rows it fills only
// until its next call, or copies them: an FSST arena's rows are decoded
// into dec, a buffer the caller passes again, grown when short, returned.
func (buf *Vector) FillDecoded(src *Vector, sel []int32, n int, dec []byte) (*Vector, []byte) {
	return buf.fill(src, sel, n, dec)
}

// fill is FillFrom, decoding an FSST arena's rows into dec (decodeInto).
func (buf *Vector) fill(src *Vector, sel []int32, n int, dec []byte) (*Vector, []byte) {
	if !src.Packed() {
		return src, dec
	}
	need := n
	if sel != nil {
		need = 0
		if n > 0 {
			need = int(sel[n-1]) + 1
		}
	}
	buf.Kind, buf.Nulls = src.Kind, src.Nulls
	switch {
	case src.Off != nil:
		buf.Str = grow(buf.Str, need, src.Len())
		dec = fillArena(dec, buf.Str, src.Off, src.Shared, sel, n)
	case src.Kind.StorageClass() == vtypes.ClassF64:
		buf.F64 = grow(buf.F64, need, len(src.Codes))
		primitives.MapCodes(buf.F64, src.Codes, src.Shared.DictF64, sel, n)
	default:
		buf.Str = grow(buf.Str, need, len(src.Codes))
		primitives.MapCodes(buf.Str, src.Codes, src.Shared.Dict, sel, n)
	}
	return buf, dec
}

// grow returns FillFrom's buffer d with need slots, of a source of rows
// slots. d grows to twice what a batch needs, so a batch whose last live
// row is near its end makes d as long as the batch at once.
func grow[T any](d []T, need, rows int) []T {
	if cap(d) < need {
		d = make([]T, need, min(max(2*need, 2*cap(d)), rows))
	}
	return d[:need]
}

// SameDict reports whether two dictionaries are the same one (the same
// decoded chunk's, or the same map's over it), not merely equal: what a
// consumer keeping state per dictionary compares to know it still applies.
func SameDict[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

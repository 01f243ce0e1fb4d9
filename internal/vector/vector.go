// Package vector implements the unit of data flow of the X100 engine:
// small typed arrays ("vectors") of roughly a thousand values, processed
// whole by each primitive. This strikes the balance the paper describes
// between tuple-at-a-time pipelining (interpretation overhead on every
// tuple) and MonetDB-style full materialization (memory traffic for
// whole-column intermediates).
//
// A VARCHAR or DOUBLE vector read from a dictionary-coded (PDICT) chunk of
// at most 256 entries is *coded*: it holds that chunk's one-byte Codes and
// its dictionary, the string dictionary Shared.Dict (Str == nil, row i is
// Dict[Codes[i]]) or the float dictionary Shared.DictF64 (F64 == nil, row
// i is DictF64[Codes[i]]). Only storage.Table.DecodeChunk makes one from a
// chunk, and only the storage scanner's views pass it on; the
// one operator output that is coded is a DOUBLE arithmetic map over one
// coded column and constants (expr.Arith), which maps the dictionary and
// keeps the codes.
//
// A VARCHAR vector read from a plain (CodecPlainStr) chunk is an *arena*:
// Arrow's variable-length layout, one offsets array Off and one bytes
// buffer Shared.Bytes, row i being Bytes[Off[i]:Off[i+1]] (Str == nil,
// Codes == nil). Bytes is the table image's own payload, so the arena
// holds 4 bytes a row and no string. As with codes, only
// storage.Table.DecodeChunk makes one, and only the scanner's views pass it
// on.
//
// Every other vector an operator writes has Codes == nil and Off == nil,
// and holds its values. Readers of a VARCHAR or DOUBLE vector fall into
// three classes (docs/ARCHITECTURE.md lists them): code-aware ones work on
// the codes or the arena's bytes; copying and boxing ones (Len, Get,
// StrAt, F64At, CopyFrom, GatherFrom) read through the dictionary or the
// offsets; computing ones fill the live rows they compute on into a
// buffer of their own (FillFrom) and run their kernel on it. None takes a
// length from len(Str) or len(F64), or ranges over them, of a vector that
// can be coded or an arena: a nil payload fails with an index panic,
// never as zero rows.
//
// A row read from an arena is a view, a string over the arena's bytes
// (arena.go, the one file that makes one): reading through and filling
// allocate nothing. A view keeps the whole table image alive, so a string
// handed to a caller of the public API is a copy (vectorwise.Rows).
//
// A BIGINT or DOUBLE vector read from a plain chunk is an ordinary vector
// of values whose I64 or F64 is a view of the table image (FixedView, in
// arena.go too). Like every chunk a scan fetches, it is read-only: a
// write to it would write the image.
package vector

import (
	"fmt"

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
	// more than the vector has slots, and Str and Codes are nil.
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
type Shared struct {
	Dict    []string
	DictF64 []float64
	Bytes   []byte
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
		return view(v.Shared.Bytes, v.Off[i], v.Off[i+1])
	}
	return v.Str[i]
}

// Packed reports whether v's values are not in its payload slice: it is
// coded or an arena. A computing reader fills such a vector (FillFrom).
func (v *Vector) Packed() bool { return v.Codes != nil || v.Off != nil }

// F64At returns the value in slot i of a DOUBLE vector, read through the
// dictionary when v is coded.
func (v *Vector) F64At(i int) float64 {
	if v.Codes != nil {
		return v.Shared.DictF64[v.Codes[i]]
	}
	return v.F64[i]
}

// uncode makes v hold its own values: the slots written no longer read
// through a dictionary or an arena.
func (v *Vector) uncode() {
	v.Codes, v.Off, v.Shared = nil, nil, nil
}

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
			CompactArena(v.Str[dstOff:dstOff+n], src.Off[srcOff:], src.Shared.Bytes, nil)
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
// A coded src is read through its dictionary, an arena's rows as views.
func (v *Vector) GatherFrom(src *Vector, sel []int32) {
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
			CompactArena(v.Str[:len(sel)], src.Off, src.Shared.Bytes, sel)
		} else {
			gatherCoded(v.Str, src.Str, src.Codes, src.Dict(), sel)
		}
	case vtypes.ClassBool:
		d, s := v.B, src.B
		for i, ix := range sel {
			d[i] = s[ix]
		}
	}
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
// whatever an earlier batch left there.
func (buf *Vector) FillFrom(src *Vector, sel []int32, n int) *Vector {
	if !src.Packed() {
		return src
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
		fillArena(buf.Str, src.Off, src.Shared.Bytes, sel, n)
	case src.Kind.StorageClass() == vtypes.ClassF64:
		buf.F64 = grow(buf.F64, need, len(src.Codes))
		primitives.MapCodes(buf.F64, src.Codes, src.Shared.DictF64, sel, n)
	default:
		buf.Str = grow(buf.Str, need, len(src.Codes))
		primitives.MapCodes(buf.Str, src.Codes, src.Shared.Dict, sel, n)
	}
	return buf
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

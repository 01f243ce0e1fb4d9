package main

import (
	"math/rand/v2"
	"time"

	"vectorwise/internal/compress"
	"vectorwise/internal/expr"
	"vectorwise/internal/hashtable"
	"vectorwise/internal/primitives"
	"vectorwise/internal/storage"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// Layer probes: one exported call of a layer, timed in isolation on the
// workload's own data. They give the bottom rungs (ns per tuple, MB/s)
// that statement times are made of.

// metrics is a run's named numbers.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// bestOf returns the shortest of reps timings of f.
func bestOf(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		best = min(best, time.Since(start))
	}
	return best
}

const vec = vector.DefaultSize

// lineitemCols are the decoded lineitem columns the kernel probes stream.
type lineitemCols struct {
	orderkey, ship        []int64
	qty, price, disc, tax []float64
	comment               []string
	rows                  int
}

func readLineitem(li *storage.Table) (*lineitemCols, error) {
	c := &lineitemCols{rows: int(li.Rows())}
	for _, x := range []struct {
		col int
		i64 *[]int64
		f64 *[]float64
		str *[]string
	}{
		{col: tpch.LOrderKey, i64: &c.orderkey}, {col: tpch.LShipDate, i64: &c.ship},
		{col: tpch.LQuantity, f64: &c.qty}, {col: tpch.LExtendedPrice, f64: &c.price},
		{col: tpch.LDiscount, f64: &c.disc}, {col: tpch.LTax, f64: &c.tax},
		{col: tpch.LComment, str: &c.comment},
	} {
		v, err := li.ReadAllColumn(x.col)
		if err != nil {
			return nil, err
		}
		switch {
		case x.i64 != nil:
			*x.i64 = v.I64
		case x.f64 != nil:
			*x.f64 = v.F64
		default:
			*x.str = v.Str
		}
	}
	return c, nil
}

// stream runs kernel over the column one vector at a time, three passes,
// and returns the best pass's ns per live tuple. The column is far larger
// than L2, so this is the kernel at memory speed, as a scan sees it.
func (c *lineitemCols) stream(live int, kernel func(off int)) float64 {
	vectors := c.rows / vec
	best := bestOf(3, func() {
		for v := 0; v < vectors; v++ {
			kernel(v * vec)
		}
	})
	return float64(best) / float64(vectors*live)
}

var probeSink int

// primitiveProbes times the X100 kernels, dense and with a 10 % selection
// vector, against a copy as the bandwidth roofline.
func primitiveProbes(c *lineitemCols, m metrics) {
	sparse := make([]int32, 0, vec/10+1)
	for i := 0; i < vec; i += 10 {
		sparse = append(sparse, int32(i))
	}
	res := make([]int32, vec)
	dst := make([]float64, vec)
	hashes := make([]uint64, vec)
	acc := make([]float64, 4)
	groups := make([]uint32, vec)
	for i := range groups {
		groups[i] = uint32(i & 3)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	idx := make([]uint32, c.rows)
	for i := range idx {
		idx[i] = uint32(rng.IntN(c.rows))
	}
	ns := func(name string, live int, kernel func(off int)) {
		m.set("primitives."+name+"_ns_tuple", c.stream(live, kernel), "ns")
	}
	ns("sel_dense", vec, func(o int) { probeSink += primitives.SelLtVC(res, c.qty[o:o+vec], 24, nil, vec) })
	ns("sel_sparse", len(sparse), func(o int) {
		probeSink += primitives.SelLtVC(res, c.qty[o:o+vec], 24, sparse, len(sparse))
	})
	ns("map_dense", vec, func(o int) { primitives.MapMulVV(dst, c.price[o:o+vec], c.disc[o:o+vec], nil, vec) })
	ns("map_sparse", len(sparse), func(o int) {
		primitives.MapMulVV(dst, c.price[o:o+vec], c.disc[o:o+vec], sparse, len(sparse))
	})
	ns("agg_sum", vec, func(o int) { primitives.AggSum(acc, groups, c.qty[o:o+vec], nil, vec) })
	ns("hash", vec, func(o int) { primitives.HashI64(hashes, c.orderkey[o:o+vec], nil, vec) })
	ns("gather", vec, func(o int) { primitives.Gather(dst, c.price, idx[o:o+vec], vec) })
	ns("like", vec, func(o int) { probeSink += primitives.SelLike(res, c.comment[o:o+vec], "%special%", nil, vec) })
	ns("copy", vec, func(o int) { primitives.MapCopy(dst, c.price[o:o+vec], nil, vec) })
}

// exprProbes times two compiled expression trees over lineitem vectors:
// Q6's predicate and Q1's charge projection.
func exprProbes(c *lineitemCols, m metrics) error {
	col := func(i int, k vtypes.Kind) expr.Expr { return expr.NewCol(i, k) }
	shipLo, shipHi := vtypes.DateValue(vtypes.MustParseDate("1994-01-01")), vtypes.DateValue(vtypes.MustParseDate("1994-12-31"))
	p1, err := expr.NewBetween(col(0, vtypes.KindDate), shipLo, shipHi)
	if err != nil {
		return err
	}
	p2, err := expr.NewBetween(col(1, vtypes.KindF64), vtypes.F64Value(0.05), vtypes.F64Value(0.07))
	if err != nil {
		return err
	}
	p3, err := expr.NewCmpConst(col(2, vtypes.KindF64), expr.CmpLt, vtypes.F64Value(24))
	if err != nil {
		return err
	}
	pred := expr.NewAnd(p1, p2, p3)

	one := expr.NewConst(vtypes.F64Value(1))
	oneMinusDisc, err := expr.NewArith(expr.OpSub, one, col(1, vtypes.KindF64))
	if err != nil {
		return err
	}
	onePlusTax, err := expr.NewArith(expr.OpAdd, one, col(4, vtypes.KindF64))
	if err != nil {
		return err
	}
	discPrice, err := expr.NewArith(expr.OpMul, col(3, vtypes.KindF64), oneMinusDisc)
	if err != nil {
		return err
	}
	charge, err := expr.NewArith(expr.OpMul, discPrice, onePlusTax)
	if err != nil {
		return err
	}

	b := &vector.Batch{Vecs: []*vector.Vector{
		{Kind: vtypes.KindDate}, {Kind: vtypes.KindF64}, {Kind: vtypes.KindF64}, {Kind: vtypes.KindF64}, {Kind: vtypes.KindF64},
	}}
	at := func(o int) {
		b.Vecs[0].I64 = c.ship[o : o+vec]
		b.Vecs[1].F64, b.Vecs[2].F64 = c.disc[o:o+vec], c.qty[o:o+vec]
		b.Vecs[3].F64, b.Vecs[4].F64 = c.price[o:o+vec], c.tax[o:o+vec]
		b.SetDense(vec)
	}
	var evalErr error
	m.set("expr.q6_pred_ns_tuple", c.stream(vec, func(o int) {
		at(o)
		if err := pred.Filter(b); err != nil {
			evalErr = err
		}
	}), "ns")
	m.set("expr.q1_proj_ns_tuple", c.stream(vec, func(o int) {
		at(o)
		if _, err := charge.Eval(b); err != nil {
			evalErr = err
		}
	}), "ns")
	return evalErr
}

// hashtableProbes times the shared hash table's batch kernels on
// l_orderkey: an insert pass and a find pass over a table far past L2
// (one entry per order), and a find pass over a 1 K-entry table.
func hashtableProbes(keys []int64, m metrics) {
	n := len(keys) / vec * vec
	hashes := make([]uint64, n)
	primitives.HashI64(hashes, keys, nil, n)
	small := make([]int64, n)
	for i, k := range keys[:n] {
		small[i] = k & 1023
	}
	smallHashes := make([]uint64, n)
	primitives.HashI64(smallHashes, small, nil, n)

	build := func(keys []int64, hashes []uint64) (*hashtable.Table, []int64, time.Duration) {
		t := hashtable.New(0)
		var store, batch []int64
		eq := func(rows []int32, vals []uint32, miss []bool, n int) {
			for j := 0; j < n; j++ {
				miss[j] = store[vals[j]] != batch[rows[j]]
			}
		}
		alloc := func(row int32) uint32 {
			store = append(store, batch[row])
			return uint32(len(store) - 1)
		}
		out := make([]uint32, vec)
		start := time.Now()
		for o := 0; o < len(keys); o += vec {
			batch = keys[o : o+vec]
			t.FindOrInsert(hashes[o:o+vec], nil, vec, out, eq, alloc)
		}
		return t, store, time.Since(start)
	}
	find := func(t *hashtable.Table, store, keys []int64, hashes []uint64) time.Duration {
		var batch []int64
		eq := func(rows []int32, vals []uint32, miss []bool, n int) {
			for j := 0; j < n; j++ {
				miss[j] = store[vals[j]] != batch[rows[j]]
			}
		}
		out := make([]int32, vec)
		return bestOf(3, func() {
			for o := 0; o < len(keys); o += vec {
				batch = keys[o : o+vec]
				t.Find(hashes[o:o+vec], nil, vec, out, eq)
			}
		})
	}
	t, store, insert := build(keys[:n], hashes)
	m.set("hashtable.insert_ns_key", float64(insert)/float64(n), "ns")
	m.set("hashtable.find_ns_key", float64(find(t, store, keys[:n], hashes))/float64(n), "ns")
	t, store, _ = build(small, smallHashes)
	m.set("hashtable.small_find_ns_key", float64(find(t, store, small, smallHashes))/float64(n), "ns")
}

// storageProbes decodes every chunk of the given tables once through
// storage (DecodeChunk) and once through the codec alone, and reports the
// decode rates per codec family, the compression ratio and the stored
// bytes per row.
func storageProbes(m metrics, tables ...*storage.Table) error {
	type rate struct {
		bytes float64
		time  time.Duration
	}
	family := map[compress.Codec]string{
		compress.CodecPFOR: "pfor", compress.CodecPFORDelta: "pfor",
		compress.CodecDict: "pdict", compress.CodecRLE: "prle", compress.CodecPlainF64: "f64",
	}
	codecs := map[string]*rate{"pfor": {}, "pdict": {}, "prle": {}, "f64": {}}
	var whole rate
	var stored, rows int64
	for _, t := range tables {
		stored += t.DataSize()
		rows += t.Rows()
		for g := range t.Meta.Groups {
			for c, chunk := range t.Meta.Groups[g].Cols {
				start := time.Now()
				v, err := t.DecodeChunk(g, c)
				if err != nil {
					return err
				}
				whole.time += time.Since(start)
				n := float64(t.GroupRows(g))
				size := 8 * n
				if v.Str != nil {
					size = 16 * n
					for _, s := range v.Str {
						size += float64(len(s))
					}
				}
				whole.bytes += size

				r := codecs[family[chunk.Codec]]
				if r == nil {
					continue
				}
				raw := t.RawChunk(g, c)
				start = time.Now()
				switch t.Meta.Cols[c].Kind.StorageClass() {
				case vtypes.ClassI64:
					_, err = compress.DecompressI64(nil, raw)
				case vtypes.ClassF64:
					_, err = compress.DecompressF64(nil, raw)
				case vtypes.ClassStr:
					_, err = compress.DecompressStr(nil, raw)
				}
				if err != nil {
					return err
				}
				r.time += time.Since(start)
				r.bytes += size
			}
		}
	}
	mbs := func(r rate) float64 {
		if r.time == 0 {
			return 0
		}
		return r.bytes / mb / r.time.Seconds()
	}
	m.set("storage.decode_mb_s", mbs(whole), "MB/s")
	m.set("storage.bytes_per_row", float64(stored)/float64(rows), "B")
	m.set("compress.ratio", whole.bytes/float64(stored), "ratio")
	for name, r := range codecs {
		m.set("compress."+name+"_mb_s", mbs(*r), "MB/s")
	}
	return nil
}

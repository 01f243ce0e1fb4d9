package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestBitPackRoundtrip(t *testing.T) {
	for _, width := range []uint{1, 3, 7, 8, 13, 31, 33, 63, 64} {
		vals := make([]uint64, 100)
		rng := rand.New(rand.NewSource(int64(width)))
		for i := range vals {
			vals[i] = rng.Uint64() & widthMask(width)
		}
		packed := packBits(nil, vals, width)
		if len(packed) != packedLen(len(vals), width) {
			t.Fatalf("width %d: packed length %d, want %d", width, len(packed), packedLen(len(vals), width))
		}
		out := make([]int64, len(vals))
		unpackBits(out, packed, 0, width, 0)
		for i, v := range vals {
			if uint64(out[i]) != v {
				t.Fatalf("width %d: roundtrip mismatch at %d", width, i)
			}
		}
		// A window starting mid-stream, rebased.
		win := make([]int64, 9)
		unpackBits(win, packed, 37, width, -3)
		for i, got := range win {
			if got != int64(vals[37+i])-3 {
				t.Fatalf("width %d: window value %d = %d, want %d", width, i, got, int64(vals[37+i])-3)
			}
		}
	}
}

func TestBitPackWidthZero(t *testing.T) {
	out := []int64{7, 7}
	if unpackBits(out, nil, 0, 0, 5); out[0] != 5 || out[1] != 5 {
		t.Fatal("width-0 unpack must write base")
	}
	if got := packBits(nil, []uint64{1, 2}, 0); len(got) != 0 {
		t.Fatal("width-0 pack must emit nothing")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64} {
		if unzigzag(zigzag(v)) != v {
			t.Fatalf("zigzag roundtrip fails for %d", v)
		}
	}
	if zigzag(0) != 0 || zigzag(-1) != 1 || zigzag(1) != 2 {
		t.Fatal("zigzag mapping not canonical")
	}
}

func TestBitsNeeded(t *testing.T) {
	cases := map[uint64]uint{0: 0, 1: 1, 2: 2, 3: 2, 255: 8, 256: 9, math.MaxUint64: 64}
	for v, want := range cases {
		if got := bitsNeeded(v); got != want {
			t.Errorf("bitsNeeded(%d) = %d, want %d", v, got, want)
		}
	}
}

func roundtripI64(t *testing.T, vals []int64, codec Codec) []byte {
	t.Helper()
	data := encodeI64(vals, codec)
	out, err := DecompressI64(nil, data)
	if err != nil {
		t.Fatalf("%v decompress: %v", codec, err)
	}
	if len(out) != len(vals) {
		t.Fatalf("%v: wrong length %d want %d", codec, len(out), len(vals))
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("%v: value %d mismatch: %d want %d", codec, i, out[i], vals[i])
		}
	}
	return data
}

func TestI64CodecsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	datasets := map[string][]int64{
		"empty":     {},
		"single":    {42},
		"constant":  {9, 9, 9, 9, 9, 9, 9},
		"small":     {1, 5, 3, 2, 4, 0, 7, 6},
		"negatives": {-5, -1, -1000000, 3, 0},
		"sorted":    sortedInts(1000),
		"outliers":  withOutliers(rng, 1000),
		"random":    randomInts(rng, 1000),
		"extremes":  {math.MinInt64, math.MaxInt64, 0, -1, 1},
	}
	for name, vals := range datasets {
		for _, codec := range []Codec{CodecPlainI64, CodecPFOR, CodecPFORDelta, CodecRLE} {
			t.Run(name+"/"+codec.String(), func(t *testing.T) {
				roundtripI64(t, vals, codec)
			})
		}
	}
}

// TestI64ReaderBlocks: reading a chunk front to back in blocks of 1, 7,
// 64 or 1 000 rows gives DecompressI64's values, for every codec: PFOR
// exceptions land in the block that holds them, PFOR-DELTA's running sum
// and RLE's runs carry across blocks. A read past the end is an error.
func TestI64ReaderBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	runs := make([]int64, 1000)
	for i := range runs {
		runs[i] = int64(i/37) * -3
	}
	for name, vals := range map[string][]int64{
		"sorted":   sortedInts(1000),
		"outliers": withOutliers(rng, 1000),
		"random":   randomInts(rng, 1000),
		"runs":     runs,
	} {
		for _, codec := range []Codec{CodecPlainI64, CodecPFOR, CodecPFORDelta, CodecRLE} {
			data := encodeI64(vals, codec)
			for _, block := range []int{1, 7, 64, 1000} {
				r, err := NewI64Reader(data)
				if err != nil || r.Len() != len(vals) {
					t.Fatalf("%s/%v: reader of %d rows, error %v", name, codec, r.Len(), err)
				}
				got := make([]int64, len(vals))
				for lo := 0; lo < len(vals); lo += block {
					if err := r.Read(got[lo:min(lo+block, len(vals))]); err != nil {
						t.Fatalf("%s/%v, blocks of %d: row %d: %v", name, codec, block, lo, err)
					}
				}
				if !slices.Equal(got, vals) {
					t.Errorf("%s/%v, blocks of %d: values differ", name, codec, block)
				}
				if err := r.Read(got[:1]); err == nil {
					t.Errorf("%s/%v: a read past the end succeeds", name, codec)
				}
			}
		}
	}
}

func sortedInts(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(1000 + i*3)
	}
	return v
}

func withOutliers(rng *rand.Rand, n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(rng.Intn(100))
		if i%97 == 0 {
			v[i] = int64(rng.Uint64() >> 1) // huge outlier
		}
	}
	return v
}

func randomInts(rng *rand.Rand, n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(rng.Uint64())
	}
	return v
}

func TestPFORCompressesSmallDomains(t *testing.T) {
	// 10k values in [0,16): PFOR should use ~4 bits/value vs 64 plain.
	vals := make([]int64, 10000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = int64(rng.Intn(16))
	}
	data := roundtripI64(t, vals, CodecPFOR)
	plain := encodeI64(vals, CodecPlainI64)
	ratio := float64(len(plain)) / float64(len(data))
	if ratio < 8 {
		t.Fatalf("PFOR ratio %.1f too low (plain %d, pfor %d)", ratio, len(plain), len(data))
	}
}

func TestPFORDeltaCompressesSorted(t *testing.T) {
	vals := sortedInts(10000)
	data := roundtripI64(t, vals, CodecPFORDelta)
	pforOnly := encodeI64(vals, CodecPFOR)
	if len(data) >= len(pforOnly) {
		t.Fatalf("PFOR-DELTA (%d) should beat PFOR (%d) on sorted data", len(data), len(pforOnly))
	}
}

func TestPFORExceptionsPatched(t *testing.T) {
	// Mostly tiny values with a handful of huge ones: the exceptions
	// path must restore the huge values exactly.
	vals := make([]int64, 512)
	for i := range vals {
		vals[i] = int64(i % 7)
	}
	vals[100] = math.MaxInt64 / 2
	vals[200] = math.MaxInt64 / 3
	vals[511] = math.MaxInt64
	roundtripI64(t, vals, CodecPFOR)
}

func TestRLECompressesRuns(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i / 1000) // 10 runs of 1000
	}
	data := roundtripI64(t, vals, CodecRLE)
	if len(data) > 200 {
		t.Fatalf("RLE output %d bytes for 10 runs — too large", len(data))
	}
}

func TestF64Roundtrip(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1.5, math.Pi, math.Inf(1), math.Inf(-1), math.MaxFloat64}
	for _, codec := range []Codec{CodecPlainF64, CodecDictF64} {
		data := f64Chunk(t, vals, codec)
		if got, _, _, _ := ReadHeader(data); got != codec {
			t.Fatalf("asked for %v, framed %v", codec, got)
		}
		out, err := DecompressF64(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if math.Float64bits(out[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("%v: f64 mismatch at %d", codec, i)
			}
		}
		// NaN preserves bit pattern.
		nan := []float64{math.NaN()}
		d2 := f64Chunk(t, nan, codec)
		o2, _ := DecompressF64(nil, d2)
		if !math.IsNaN(o2[0]) {
			t.Fatalf("%v: NaN lost", codec)
		}
	}
}

func TestStrRoundtrip(t *testing.T) {
	datasets := map[string][]string{
		"empty":    {},
		"plainish": {"alpha", "beta", "", "delta with spaces", "unicode ✓"},
		"lowcard":  manyRepeats(),
	}
	for name, vals := range datasets {
		for _, codec := range []Codec{CodecPlainStr, CodecDict} {
			t.Run(name+"/"+codec.String(), func(t *testing.T) {
				out, err := DecompressStr(nil, strChunk(t, vals, codec))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(append([]string{}, vals...), append([]string{}, out...)) {
					t.Fatalf("mismatch: %v vs %v", vals, out)
				}
			})
		}
	}
}

func manyRepeats() []string {
	out := make([]string, 1000)
	words := []string{"RAIL", "AIR", "TRUCK", "SHIP", "MAIL"}
	for i := range out {
		out[i] = words[i%len(words)]
	}
	return out
}

func TestDictFallsBackOnHighCardinality(t *testing.T) {
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = string(rune('a'+i%26)) + string(rune('0'+i/26)) + "x" + string(rune('A'+i%26)) + string(rune('a'+(i*7)%26))
	}
	// All distinct: the dictionary holds them, but its chunk is not the
	// smaller, so the chunk is plain.
	data := mustStr(t, vals, CodecPlainStr)
	if len(strChunk(t, vals, CodecDict)) <= len(data) {
		t.Fatal("a dictionary of distinct values is smaller than plain")
	}
	out, err := DecompressStr(nil, data)
	if err != nil || !reflect.DeepEqual(vals, out) {
		t.Fatal("fallback roundtrip broken")
	}
	// More distinct values than MaxCodeDict: no dictionary is built.
	if encodeDict(nil, words(MaxCodeDict+1)) != nil {
		t.Fatalf("a dictionary of %d entries was encoded", MaxCodeDict+1)
	}
}

func TestDictCompressesLowCardinality(t *testing.T) {
	vals := manyRepeats()
	dict := mustStr(t, vals, CodecDict)
	if len(dict)*3 > plainStrSize(vals) {
		t.Fatalf("dict %d vs plain %d: expected ≥3× savings", len(dict), plainStrSize(vals))
	}
}

func TestBoolRoundtrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 1000} {
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = i%3 == 0
		}
		out, err := DecompressBool(nil, EncodeBool(vals))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: got %d", n, len(out))
		}
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("n=%d: bit %d wrong", n, i)
			}
		}
	}
}

// TestEncodeI64Chooses: EncodeI64 keeps the smallest of the chunks it
// encodes, plain counted at 8 + 8n bytes, and of two chunks of one size
// the codec tried first, in the order plain, PFOR, PFOR-DELTA, RLE. RLE is
// tried only on a chunk of fewer than n/4 runs.
func TestEncodeI64Chooses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := make([]int64, 5000)
	for i := range small {
		small[i] = int64(rng.Intn(50))
	}
	byDay := make([]int64, 5000) // dates in date order, two rows a day
	for i := range byDay {
		byDay[i] = 9000 + int64(i/2)
	}
	// Five runs of one row code smaller as RLE than as PFOR.
	regions := []int64{0, 1, 2, 3, 4}
	if r, p := len(encodeI64(regions, CodecRLE)), len(encodeI64(regions, CodecPFOR)); r >= p {
		t.Fatalf("region keys: RLE %d bytes, PFOR %d", r, p)
	}
	for name, c := range map[string]struct {
		vals []int64
		want Codec
		tie  Codec // a codec tried later whose chunk is as large as want's
	}{
		"empty":                {nil, CodecPlainI64, 0},
		"one row":              {[]int64{math.MinInt64}, CodecPlainI64, 0},
		"random":               {randomInts(rng, 5000), CodecPlainI64, 0},
		"small domain":         {small, CodecPFOR, 0},
		"sorted":               {sortedInts(5000), CodecPFORDelta, 0},
		"constant":             {make([]int64, 5000), CodecRLE, 0},
		"two rows a day":       {byDay, CodecPFORDelta, 0},
		"region keys":          {regions, CodecPFOR, 0},
		"plain ties PFOR":      {[]int64{0, 1 << 23}, CodecPlainI64, CodecPFOR},
		"PFOR ties PFOR-DELTA": {[]int64{0, 0}, CodecPFOR, CodecPFORDelta},
		"PFOR ties RLE":        {slices.Repeat([]int64{1 << 60}, 8), CodecPFOR, CodecRLE},
	} {
		if c.tie != 0 {
			if a, b := len(encodeI64(c.vals, c.want)), len(encodeI64(c.vals, c.tie)); a != b {
				t.Fatalf("%s: %v chunk of %d bytes, %v of %d", name, c.want, a, c.tie, b)
			}
		}
		data, codec := EncodeI64(c.vals)
		if framed, _, _, _ := ReadHeader(data); codec != c.want || framed != c.want {
			t.Errorf("%s: coded %v, framed %v, want %v", name, codec, framed, c.want)
		}
		if got, err := DecompressI64(nil, data); err != nil || !slices.Equal(got, c.vals) {
			t.Errorf("%s: decoded %v, err %v", name, got, err)
		}
	}
}

// TestEncodeI64Property: every chunk EncodeI64 codes decodes to its values
// through DecompressI64 and through an I64Reader in blocks, and is no
// larger than 8 + 8n bytes or than any chunk it tried: PFOR, PFOR-DELTA,
// and RLE on a chunk of fewer than n/4 runs.
func TestEncodeI64Property(t *testing.T) {
	f := func(vals []int64, runs []uint8, shift, block uint8) bool {
		for i := range vals {
			vals[i] >>= shift % 64 // small domains, for PFOR
		}
		if shift >= 128 {
			slices.Sort(vals) // small steps, for PFOR-DELTA
		}
		vals = withRuns(vals, runs)
		data, codec := EncodeI64(vals)
		if err := checkI64(data, vals, int(block)); err != nil {
			t.Log(err)
			return false
		}
		tried := []Codec{CodecPFOR, CodecPFORDelta}
		if countRuns(vals)*rleRowsPerRun < len(vals) {
			tried = append(tried, CodecRLE)
		}
		for _, c := range tried {
			if len(encodeI64(vals, c)) < len(data) {
				t.Logf("%v chunk of %d bytes kept over a %v chunk of %d", codec, len(data), c, len(encodeI64(vals, c)))
				return false
			}
		}
		return len(data) <= headerLen+8*len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// withRuns repeats vals[i] 1 + runs[i]%32 times, for i below len(runs), so
// that random chunks have runs for RLE to code.
func withRuns(vals []int64, runs []uint8) []int64 {
	var out []int64
	for i, v := range vals {
		k := 1
		if i < len(runs) {
			k += int(runs[i] % 32)
		}
		for range k {
			out = append(out, v)
		}
	}
	return out
}

// checkI64 decodes data through DecompressI64 and through readI64; both
// must give want.
func checkI64(data []byte, want []int64, block int) error {
	if got, err := DecompressI64(nil, data); err != nil || !slices.Equal(got, want) {
		return fmt.Errorf("DecompressI64: %v, err %v, want %v", got, err, want)
	}
	if got, err := readI64(data, block); err != nil || !slices.Equal(got, want) {
		return fmt.Errorf("I64Reader: %v, err %v, want %v", got, err, want)
	}
	return nil
}

// readI64 decodes data through an I64Reader read in blocks of
// 1 + block%64 rows, sizing its output by the row count only once the
// reader has checked the payload against it.
func readI64(data []byte, block int) ([]int64, error) {
	r, err := NewI64Reader(data)
	if err != nil {
		return nil, err
	}
	got := make([]int64, r.Len())
	for lo := 0; lo < len(got); lo += 1 + block%64 {
		if err := r.Read(got[lo:min(lo+1+block%64, len(got))]); err != nil {
			return nil, err
		}
	}
	return got, nil
}

// TestEncodeStrChooses: EncodeStr builds a chunk's dictionary once, to at
// most MaxCodeDict entries. When it holds every value the chunk is PDICT
// if smaller than plain, however many of the rows are distinct; else FSST
// if smaller than plain; else plain. A chunk exactly as large as plain
// is not kept.
func TestEncodeStrChooses(t *testing.T) {
	uniq := make([]string, 50)
	for i := range uniq {
		uniq[i] = string(rune('a'+i%26)) + string(rune('0'+i))
	}
	addresses := make([]string, 100) // 77 distinct, as supplier.s_address at SF 0.01
	for i := range addresses {
		addresses[i] = fmt.Sprintf("%05d Ridge Road, building %d", i%77*131, i%77)
	}
	repeat := func(nd int) []string {
		w := words(nd)
		vals := make([]string, 4*nd)
		for i := range vals {
			vals[i] = w[(i*7)%nd] + " carefully final deposits"
		}
		return vals
	}
	// Three rows over two entries of 11 bytes: PDICT and plain are both 44
	// bytes.
	tie := []string{"aaaaaaaaaaa", "bbbbbbbbbbb", "aaaaaaaaaaa"}
	if d, p := len(strChunk(t, tie, CodecDict)), plainStrSize(tie); d != p {
		t.Fatalf("tie case: dictionary %d bytes, plain %d", d, p)
	}
	for name, c := range map[string]struct {
		vals []string
		want Codec
	}{
		"low cardinality":        {manyRepeats(), CodecDict},
		"unique":                 {uniq, CodecPlainStr},
		"empty":                  {nil, CodecPlainStr},
		"77 distinct of 100":     {addresses, CodecDict},
		"256 distinct":           {repeat(MaxCodeDict), CodecDict},
		"257 distinct":           {repeat(MaxCodeDict + 1), CodecFSST},
		"dictionary ties plain":  {tie, CodecPlainStr},
		"one value, 2 000 times": {slices.Repeat([]string{"MAIL"}, 2000), CodecDict},
	} {
		data := mustStr(t, c.vals, c.want)
		if c.want != CodecPlainStr && len(data) >= plainStrSize(c.vals) {
			t.Errorf("%s: %v chunk of %d bytes, plain %d", name, c.want, len(data), plainStrSize(c.vals))
		}
		checkCodes(t, data, c.vals)
	}
}

func TestCorruptChunks(t *testing.T) {
	if _, _, _, err := ReadHeader([]byte{1, 2}); err == nil {
		t.Fatal("short header must error")
	}
	if _, err := DecompressI64(nil, []byte{}); err == nil {
		t.Fatal("empty chunk must error")
	}
	// Wrong codec routed to wrong decoder.
	data := f64Chunk(t, []float64{1}, CodecPlainF64)
	if _, err := DecompressI64(nil, data); err == nil {
		t.Fatal("f64 chunk through i64 decoder must error")
	}
	data2 := encodeI64([]int64{1, 2, 3}, CodecPFOR)
	if _, err := DecompressF64(nil, data2); err == nil {
		t.Fatal("i64 chunk through f64 decoder must error")
	}
	if _, err := DecompressStr(nil, data2); err == nil {
		t.Fatal("i64 chunk through str decoder must error")
	}
	if _, err := DecompressBool(nil, data2); err == nil {
		t.Fatal("i64 chunk through bool decoder must error")
	}
	// Truncated payloads must error, not panic.
	full := encodeI64(sortedInts(100), CodecPFOR)
	for cut := 5; cut < len(full); cut += 7 {
		if _, err := DecompressI64(nil, full[:cut]); err == nil {
			t.Fatalf("truncation at %d must error", cut)
		}
	}
	fullStr := mustStr(t, manyRepeats()[:64], CodecDict)
	for cut := 5; cut < len(fullStr)-1; cut += 5 {
		if _, err := DecompressStr(nil, fullStr[:cut]); err == nil {
			t.Fatalf("dict truncation at %d must error", cut)
		}
	}
	// Unknown codec tags.
	bad := []byte{99, 1, 0, 0, 0, 0}
	if _, err := DecompressI64(nil, bad); err == nil {
		t.Fatal("unknown codec must error")
	}
	// A plain-str chunk is every row's length, then every row's bytes:
	// lengths that overrun the bytes, bytes left after the last row, a
	// length cut mid-uvarint and a row count past the payload are errors
	// from both decoders, never a panic or a silent truncation.
	plain := func(rows int, payload ...byte) []byte {
		return append(frameHeader(nil, CodecPlainStr, rows), payload...)
	}
	for name, data := range map[string][]byte{
		"lengths overrun":   plain(2, 3, 5, 'a', 'b', 'c', 'd', 'e', 'f', 'g'),
		"trailing bytes":    plain(2, 1, 1, 'a', 'b', 'c'),
		"truncated length":  plain(1, 0x80),
		"rows past payload": plain(1000, 1, 'a'),
		"huge length":       plain(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'a'),
	} {
		if _, err := DecompressStr(nil, data); err == nil {
			t.Errorf("%s: DecompressStr accepted the chunk", name)
		}
		if _, _, _, err := DecompressStrArena(data); err == nil {
			t.Errorf("%s: DecompressStrArena accepted the chunk", name)
		}
	}
	if _, _, _, err := DecompressStrArena(fullStr); err == nil {
		t.Error("DecompressStrArena accepted a dictionary chunk")
	}
	// Offsets are uint32: the encoder refuses a chunk of more bytes before
	// it copies any (4097 headers of one 1 MiB string).
	mib := string(make([]byte, 1<<20))
	if _, err := encodePlainStr(nil, slices.Repeat([]string{mib}, 4097)); err == nil {
		t.Error("a plain-str chunk of 4 GiB + 1 MiB was encoded")
	}
}

func TestI64RoundtripPropertyAllCodecs(t *testing.T) {
	for _, codec := range []Codec{CodecPFOR, CodecPFORDelta, CodecRLE} {
		codec := codec
		f := func(vals []int64) bool {
			out, err := DecompressI64(nil, encodeI64(vals, codec))
			if err != nil || len(out) != len(vals) {
				return false
			}
			for i := range vals {
				if out[i] != vals[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", codec, err)
		}
	}
}

func TestStrRoundtripProperty(t *testing.T) {
	f := func(vals []string) bool {
		data, codec, err := EncodeStr(vals)
		if c, _, _, _ := ReadHeader(data); err != nil || c != codec {
			return false
		}
		out, err := DecompressStr(nil, data)
		if err != nil || len(out) != len(vals) {
			return false
		}
		for i := range vals {
			if out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressReusesBuffer(t *testing.T) {
	data := encodeI64([]int64{1, 2, 3}, CodecPlainI64)
	buf := make([]int64, 10)
	out, err := DecompressI64(buf, data)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[0] {
		t.Fatal("must reuse caller buffer when capacity suffices")
	}
}

func TestFrameRowCount(t *testing.T) {
	data := encodeI64([]int64{5, 6, 7}, CodecPFOR)
	_, n, _, err := ReadHeader(data)
	if err != nil || n != 3 {
		t.Fatalf("frame count = %d, err %v", n, err)
	}
	if !bytes.Equal(data[:1], []byte{byte(CodecPFOR)}) {
		t.Fatal("frame codec byte wrong")
	}
}

// dictChunk frames a PDICT chunk from an explicit dictionary and code
// stream, valid or not.
func dictChunk(dict []string, codes []int64) []byte {
	dst := frameHeader(nil, CodecDict, len(codes))
	dst = appendUvarint(dst, uint64(len(dict)))
	for _, s := range dict {
		dst = appendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return encodePFOR(dst, codes)
}

func words(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "w" + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676))
	}
	return out
}

// checkCodes decodes data both ways: DecompressStr must yield want, and
// DecompressStrCodes codes over a dictionary of at most MaxCodeDict
// entries with no strings, dict[codes[i]] == want[i], of a PDICT chunk,
// and an error of any other.
func checkCodes(t *testing.T, data []byte, want []string) {
	t.Helper()
	plain, err := DecompressStr(nil, data)
	if err != nil || !slices.Equal(plain, want) {
		t.Fatalf("DecompressStr: %v (err %v)", plain, err)
	}
	codes, dict, err := DecompressStrCodes(data)
	if c, _, _, _ := ReadHeader(data); c != CodecDict {
		if err == nil {
			t.Fatalf("DecompressStrCodes decoded a %v chunk", c)
		}
		return
	}
	if err != nil {
		t.Fatalf("DecompressStrCodes: %v", err)
	}
	if len(codes) != len(want) || len(dict) > MaxCodeDict {
		t.Fatalf("%d codes for %d rows, dict of %d", len(codes), len(want), len(dict))
	}
	for i, c := range codes {
		if int(c) >= len(dict) || dict[c] != want[i] {
			t.Fatalf("row %d: code %d of a dictionary of %d, want %q", i, c, len(dict), want[i])
		}
	}
}

// strChunk encodes vals as a plain-str or PDICT chunk, whether or not
// EncodeStr would pick it; a PDICT chunk of no rows is its frame alone.
func strChunk(t testing.TB, vals []string, codec Codec) []byte {
	t.Helper()
	dst := frameHeader(nil, codec, len(vals))
	if codec == CodecPlainStr {
		out, err := encodePlainStr(dst, vals)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if len(vals) == 0 {
		return dst
	}
	if out := encodeDict(dst, vals); out != nil {
		return out
	}
	t.Fatalf("%d rows hold more than %d values", len(vals), MaxCodeDict)
	return nil
}

// f64Chunk encodes vals as a plain or PDICT DOUBLE chunk, whether or not
// EncodeF64 would pick it.
func f64Chunk(t testing.TB, vals []float64, codec Codec) []byte {
	t.Helper()
	dst := frameHeader(nil, codec, len(vals))
	if codec == CodecDictF64 {
		if dst = encodeDictF64(dst, vals); dst == nil {
			t.Fatalf("%d rows hold more than %d bit patterns", len(vals), MaxCodeDict)
		}
		return dst
	}
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func TestDictCodesRoundtrip(t *testing.T) {
	// A single-value dictionary packs its codes at width 0.
	same := make([]string, 700)
	for i := range same {
		same[i] = "R"
	}
	data := mustStr(t, same, CodecDict)
	if p := codesOf(t, data); p.width != 0 || p.nexc != 0 {
		t.Fatalf("single-value dictionary packed at width %d with %d exceptions", p.width, p.nexc)
	}
	checkCodes(t, data, same)

	// Mostly four values, a few rare ones: narrow width plus exceptions,
	// some of them in the last, partial decode block.
	rare := make([]string, 1000)
	w := words(9)
	for i := range rare {
		rare[i] = w[i%4]
	}
	for k, i := range []int{300, 301, 700, 999, 998} {
		rare[i] = w[4+k]
	}
	data = mustStr(t, rare, CodecDict)
	if p := codesOf(t, data); p.width != 2 || p.nexc != 5 {
		t.Fatalf("want width 2 with 5 exceptions, got %d and %d", p.width, p.nexc)
	}
	checkCodes(t, data, rare)

	// 256 values are dictionary-coded; 257 are not. A dictionary of 257
	// entries, which no encoder writes, is refused by both decoders.
	for _, nd := range []int{MaxCodeDict, MaxCodeDict + 1} {
		w := words(nd)
		vals := make([]string, 4*nd)
		for i := range vals {
			vals[i] = w[(i*7)%nd]
		}
		data, codec, err := EncodeStr(vals)
		if err != nil || (codec == CodecDict) != (nd <= MaxCodeDict) {
			t.Fatalf("%d values coded %v (err %v)", nd, codec, err)
		}
		checkCodes(t, data, vals)
	}
	big := make([]int64, MaxCodeDict+1)
	for i := range big {
		big[i] = int64(i)
	}
	data = dictChunk(words(MaxCodeDict+1), big)
	if _, err := DecompressStr(nil, data); err == nil {
		t.Error("DecompressStr accepted a dictionary of 257 entries")
	}
	if _, _, err := DecompressStrCodes(data); err == nil {
		t.Error("DecompressStrCodes accepted a dictionary of 257 entries")
	}

	// Plain chunks carry no codes.
	checkCodes(t, strChunk(t, []string{"a", "b"}, CodecPlainStr), []string{"a", "b"})
}

// codesOf parses the PFOR payload of a PDICT chunk's codes.
func codesOf(t *testing.T, data []byte) pforPayload {
	t.Helper()
	c, n, payload, err := ReadHeader(data)
	if err != nil || c != CodecDict {
		t.Fatalf("not a dictionary chunk: %v (err %v)", c, err)
	}
	nd, k := binary.Uvarint(payload)
	rest := payload[k:]
	for range nd {
		l, k := binary.Uvarint(rest)
		rest = rest[k+int(l):]
	}
	p, err := parsePFOR(rest, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustStr encodes vals with EncodeStr and checks that it picks c, and
// that the frame names it.
func mustStr(t *testing.T, vals []string, c Codec) []byte {
	t.Helper()
	data, codec, err := EncodeStr(vals)
	if err != nil {
		t.Fatal(err)
	}
	if framed, _, _, _ := ReadHeader(data); codec != c || framed != c {
		t.Fatalf("%d rows coded %v, framed %v, want %v", len(vals), codec, framed, c)
	}
	return data
}

func TestDictCodeOutOfRange(t *testing.T) {
	small, full := words(3), words(MaxCodeDict)
	big := words(MaxCodeDict + 20)
	cases := map[string]struct {
		dict  []string
		codes []int64
	}{
		"packed code = ndict":          {small, []int64{0, 1, 2, 3, 1}},
		"negative code":                {small, []int64{0, -1, 2}},
		"code 258 wraps to 2 in a u8":  {small, []int64{0, 258, 1}},
		"code 256 of a full dict":      {full, []int64{0, 255, 256}},
		"code 300 of a full dict":      {full, []int64{300, 1, 0}},
		"exception code out of range":  {small, append(make([]int64, 600), 299)},
		"code 276 of a 276-entry dict": {big, []int64{0, 275, 276}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			data := dictChunk(c.dict, c.codes)
			if _, err := DecompressStr(nil, data); err == nil {
				t.Fatal("DecompressStr accepted an out-of-range code")
			}
			if _, _, err := DecompressStrCodes(data); err == nil {
				t.Fatal("DecompressStrCodes accepted an out-of-range code")
			}
		})
	}
	// The same shapes in range decode, and codes whose frame of reference
	// is not 0.
	checkCodes(t, dictChunk(full, []int64{300 - 45, 1, 0}), []string{full[255], full[1], full[0]})
	checkCodes(t, dictChunk(small, []int64{2, 1, 2, 2, 1, 1, 2, 1, 2, 1}), []string{small[2], small[1], small[2], small[2],
		small[1], small[1], small[2], small[1], small[2], small[1]})
	checkCodes(t, dictChunk(full, []int64{255, 254, 255}), []string{full[255], full[254], full[255]})
}

func TestDictCorruptExceptions(t *testing.T) {
	// Codes 0/1 at width 1, with exceptions 2 at row 580 and 3 at row 590:
	// the list ends (delta 10, value 3).
	codes := make([]int64, 600)
	for i := range codes {
		codes[i] = int64(i % 2)
	}
	codes[580], codes[590] = 2, 3
	dict := words(4)
	data := dictChunk(dict, codes)
	if p := codesOf(t, data); p.width != 1 || p.nexc != 2 {
		t.Fatalf("want width 1 with 2 exceptions, got %d and %d", p.width, p.nexc)
	}
	want := make([]string, len(codes))
	for i, c := range codes {
		want[i] = dict[c]
	}
	checkCodes(t, data, want)
	for cut := len(data) - 1; cut > len(data)-6; cut-- {
		if _, _, err := DecompressStrCodes(data[:cut]); err == nil {
			t.Fatalf("truncated exception list at %d decoded", cut)
		}
	}
	// The last exception moved past the last row: 580 + 127.
	bad := append([]byte(nil), data...)
	bad[len(bad)-2] = 0x7f
	if _, _, err := DecompressStrCodes(bad); err == nil {
		t.Fatal("exception past the last row decoded")
	}
	// A dictionary size no payload could hold.
	huge := frameHeader(nil, CodecDict, 1)
	huge = appendUvarint(huge, 1<<40)
	if _, err := DecompressStr(nil, huge); err == nil {
		t.Fatal("a 2^40-entry dictionary decoded")
	}
}

// TestPFORExceptionDeltaOverflow: an exception position delta past the
// int range is an error, not a negative index.
func TestPFORExceptionDeltaOverflow(t *testing.T) {
	data := frameHeader(nil, CodecPFOR, 8)
	data = append(data, make([]byte, 8)...) // base 0
	data = append(data, 1)                  // width 1
	data = appendUvarint(data, 1)           // one exception
	data = append(data, 0)                  // 8 packed bits
	data = appendUvarint(data, 1<<63+5)
	data = appendUvarint(data, 7)
	if _, err := DecompressI64(nil, data); err == nil {
		t.Fatal("an exception at position 2^63+5 of 8 decoded")
	}
}

// f64Bits renders values as their bit patterns, the identity a DOUBLE
// dictionary keeps.
func f64Bits(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

// checkF64Dict encodes vals with EncodeF64 and checks that the chunk is
// PDICT only when vals hold at most MaxCodeDict bit patterns and it is
// smaller than plain, that a PDICT chunk can be forced exactly then, and
// that both decoders give back every bit pattern: values, and codes over
// the dictionary.
func checkF64Dict(t *testing.T, vals []float64) {
	t.Helper()
	patterns := map[uint64]bool{}
	for _, b := range f64Bits(vals) {
		patterns[b] = true
	}
	fits := len(vals) > 0 && len(patterns) <= MaxCodeDict
	data, codec := EncodeF64(vals)
	forced := encodeDictF64(frameHeader(nil, CodecDictF64, len(vals)), vals)
	if framed, _, _, _ := ReadHeader(data); framed != codec || (forced != nil) != fits ||
		(codec == CodecDictF64) != (fits && len(forced) < headerLen+8*len(vals)) {
		t.Fatalf("%d rows of %d patterns coded %v, framed %v, forced PDICT %v", len(vals), len(patterns), codec, framed, forced != nil)
	}
	out, err := DecompressF64(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f64Bits(out), f64Bits(vals)) {
		t.Fatalf("values lost bits: %x, want %x", f64Bits(out), f64Bits(vals))
	}
	if !fits {
		return
	}
	codes, dict, err := DecompressF64Codes(forced)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != len(vals) || len(dict) != len(patterns) {
		t.Fatalf("coded decode: %d codes over %d entries", len(codes), len(dict))
	}
	plain := make([]float64, len(codes))
	for i, c := range codes {
		plain[i] = dict[c]
	}
	if !slices.Equal(f64Bits(plain), f64Bits(vals)) {
		t.Fatalf("codes lost bits: %x, want %x", f64Bits(plain), f64Bits(vals))
	}
}

// TestF64DictLimits: 1, 255 and 256 bit patterns code, 257 stay plain; −0
// and +0 and NaNs of different payloads are distinct entries. A PDICT
// chunk as large as plain is not kept. A plain chunk has no codes, and a
// dictionary of 257 entries, which no encoder writes, is refused by both
// decoders.
func TestF64DictLimits(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000007),
		math.Float64frombits(0x7ff0000000000001), math.Inf(1), math.Inf(-1)}
	for _, n := range []int{1, 255, 256, 257} {
		vals := make([]float64, 0, 3*n)
		for i := range 3 * n {
			if k := i % n; k < len(special) {
				vals = append(vals, special[k])
			} else {
				vals = append(vals, float64(k)/8)
			}
		}
		checkF64Dict(t, vals)
		if _, codec := EncodeF64(vals); (codec == CodecDictF64) != (n <= MaxCodeDict) {
			t.Errorf("%d patterns: chose %v", n, codec)
		}
	}
	checkF64Dict(t, nil)
	// 20 rows of 17 patterns: PDICT and plain are both 168 bytes, and a
	// chunk no smaller than plain is not kept.
	tie := make([]float64, 20)
	for i := range tie {
		tie[i] = float64(i % 17)
	}
	if d := len(f64Chunk(t, tie, CodecDictF64)); d != headerLen+8*len(tie) {
		t.Fatalf("tie case: dictionary %d bytes, plain %d", d, headerLen+8*len(tie))
	}
	if _, codec := EncodeF64(tie); codec != CodecPlainF64 {
		t.Errorf("a PDICT chunk as large as plain was kept: %v", codec)
	}
	if _, _, err := DecompressF64Codes(f64Chunk(t, []float64{1, 1}, CodecPlainF64)); err == nil {
		t.Error("DecompressF64Codes decoded a plain chunk")
	}
	big := frameHeader(nil, CodecDictF64, MaxCodeDict+1)
	big = appendUvarint(big, MaxCodeDict+1)
	codes := make([]int64, MaxCodeDict+1)
	for i := range codes {
		big = binary.LittleEndian.AppendUint64(big, math.Float64bits(float64(i)))
		codes[i] = int64(i)
	}
	big = encodePFOR(big, codes)
	if _, err := DecompressF64(nil, big); err == nil {
		t.Error("DecompressF64 accepted a dictionary of 257 entries")
	}
	if _, _, err := DecompressF64Codes(big); err == nil {
		t.Error("DecompressF64Codes accepted a dictionary of 257 entries")
	}
}

// FuzzF64Dict: a DOUBLE chunk round-trips bit-exactly through the codec
// EncodeF64 picks, and through a forced PDICT chunk when it holds at most
// MaxCodeDict patterns. Each two bytes of the
// input pick a value among domain of them, special patterns (±0, NaNs of
// several payloads, ±Inf, a subnormal) and raw ones from the input first.
func FuzzF64Dict(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1}, uint16(4))
	f.Add([]byte{255, 7, 7, 128}, uint16(300))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 40), uint16(257))
	seq := make([]byte, 2*600)
	for i := range 600 {
		binary.LittleEndian.PutUint16(seq[2*i:], uint16(i*7))
	}
	f.Add(seq, uint16(257))
	f.Add(seq, uint16(256))
	f.Fuzz(func(t *testing.T, in []byte, domain uint16) {
		table := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000003),
			math.Inf(1), math.Inf(-1), 0.05, 1e-310}
		for i := 0; i+8 <= len(in) && len(table) < 64; i += 8 {
			table = append(table, math.Float64frombits(binary.LittleEndian.Uint64(in[i:])))
		}
		vals := make([]float64, len(in)/2)
		for i := range vals {
			if k := int(binary.LittleEndian.Uint16(in[2*i:])) % max(int(domain), 1); k < len(table) {
				vals[i] = table[k]
			} else {
				vals[i] = float64(k) / 3
			}
		}
		checkF64Dict(t, vals)
	})
}

// FuzzI64Frame: the input framed as a plain, PFOR, PFOR-DELTA or RLE
// chunk of up to 65 535 rows decodes to the same values through
// DecompressI64 and through an I64Reader read in blocks, or fails in both,
// never panicking; a decode that fails allocates less than the rows it
// was framed with would take. Values made of the input (8 bytes each,
// shifted right, optionally summed into a rising run, each repeated) round-
// trip through EncodeI64 and the codec it returns, which the frame names.
func FuzzI64Frame(f *testing.F) {
	codecs := []Codec{CodecPlainI64, CodecPFOR, CodecPFORDelta, CodecRLE}
	for i, c := range codecs {
		for _, vals := range [][]int64{sortedInts(100), {7, 7, 7, -2}, withOutliers(rand.New(rand.NewSource(1)), 70)} {
			chunk := encodeI64(vals, c)
			f.Add(chunk[headerLen:], uint16(len(vals)), uint8(i), uint8(7))
			f.Add(chunk[headerLen:len(chunk)-1], uint16(len(vals)), uint8(i), uint8(0x85))
			f.Add(chunk[headerLen:], uint16(len(vals)+1), uint8(i+0x40), uint8(63))
		}
	}
	// Width 0 vouches for any row count; width 1 for 4 096 rows needs 512
	// bytes of codes, and a plain chunk of 2 000 rows 16 000 bytes.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(65535), uint8(1), uint8(200))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0}, uint16(4096), uint8(2), uint8(9))
	f.Add(make([]byte, 16), uint16(2000), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, payload []byte, rows uint16, sel, block uint8) {
		raw := append(frameHeader(nil, codecs[sel%4], int(rows)), payload...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		vals, derr := DecompressI64(nil, raw)
		got, rerr := readI64(raw, int(block))
		runtime.ReadMemStats(&after)
		switch {
		case (derr == nil) != (rerr == nil):
			t.Fatalf("%v frame of %d rows: DecompressI64 err %v, I64Reader err %v", codecs[sel%4], rows, derr, rerr)
		case derr == nil && !slices.Equal(vals, got):
			t.Fatalf("%v frame of %d rows: DecompressI64 %v, I64Reader %v", codecs[sel%4], rows, vals, got)
		case derr != nil && rows >= 1024 && after.TotalAlloc-before.TotalAlloc >= 4*uint64(rows):
			t.Fatalf("refusing a %v frame of %d rows allocated %d bytes", codecs[sel%4], rows, after.TotalAlloc-before.TotalAlloc)
		}

		in := make([]int64, len(payload)/8)
		var sum int64
		for i := range in {
			in[i] = int64(binary.LittleEndian.Uint64(payload[8*i:])) >> (sel % 64)
			if sel&0x80 != 0 {
				sum += in[i] >> 8
				in[i] = sum
			}
		}
		in = withRuns(in, payload[len(in)*8:])
		data, codec := EncodeI64(in)
		if c, _, _, _ := ReadHeader(data); c != codec {
			t.Fatalf("coded %v, framed %v", codec, c)
		}
		if err := checkI64(data, in, int(block)); err != nil {
			t.Fatalf("%v chunk of %d rows: %v", codec, len(in), err)
		}
	})
}

// FuzzStrDict: rows cut from the input (fuzzRows: empty rows, long rows,
// repeated rows, chunks of one distinct value) round-trip through the
// codec EncodeStr picks, whose frame names it, and a PDICT chunk decodes
// to codes over at most MaxCodeDict entries (checkCodes). The input
// framed as a PDICT chunk as it is decodes alike through DecompressStr
// and DecompressStrCodes, or fails in both, never panicking.
func FuzzStrDict(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("RAILAIRSHIP"), []byte{4, 3, 4, 255, 255, 3})
	f.Add([]byte("MAIL"), []byte{254, 4, 254, 254})
	f.Add(bytes.Repeat([]byte("ab"), 600), slices.Repeat([]byte{2, 255, 3}, 300))
	f.Add(append([]byte{2, 1, 'a', 1, 'b'}, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, in, cuts []byte) {
		vals := fuzzRows(in, cuts)
		data, codec, err := EncodeStr(vals)
		if c, _, _, _ := ReadHeader(data); err != nil || c != codec {
			t.Fatalf("coded %v, framed %v (err %v)", codec, c, err)
		}
		checkCodes(t, data, vals)

		raw := append(frameHeader(nil, CodecDict, len(cuts)), in...)
		strs, serr := DecompressStr(nil, raw)
		codes, dict, cerr := DecompressStrCodes(raw)
		if (serr == nil) != (cerr == nil) {
			t.Fatalf("raw chunk: DecompressStr err %v, DecompressStrCodes err %v", serr, cerr)
		}
		for i, c := range codes {
			if dict[c] != strs[i] {
				t.Fatalf("raw chunk row %d: code %d is %q, DecompressStr %q", i, c, dict[c], strs[i])
			}
		}
	})
}

// BenchmarkDecompressF64 decodes a 64 Ki-row DOUBLE chunk of 50 values:
// plain, to values, and PDICT, to its codes (ns/row).
func BenchmarkDecompressF64(b *testing.B) {
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = float64(i*7%50 + 1)
	}
	for _, codec := range []Codec{CodecPlainF64, CodecDictF64} {
		data := f64Chunk(b, vals, codec)
		b.Run(codec.String(), func(b *testing.B) {
			for range b.N {
				var err error
				if codec == CodecDictF64 {
					_, _, err = DecompressF64Codes(data)
				} else {
					_, err = DecompressF64(nil, data)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/row")
		})
	}
}

// TestCorruptRLERuns feeds RLE frames whose runs do not add up to the
// row count: each is an error, never a panic. A run of 2^63 or more
// wraps an int negative, so it must be compared unsigned.
func TestCorruptRLERuns(t *testing.T) {
	rle := func(rows int, pairs ...uint64) []byte {
		dst := frameHeader(nil, CodecRLE, rows)
		for _, u := range pairs {
			dst = appendUvarint(dst, u)
		}
		return dst
	}
	for name, data := range map[string][]byte{
		"run of 2^63":   rle(4, zigzag(7), 1<<63),
		"run of 2^64-1": rle(4, zigzag(7), math.MaxUint64),
		// As ints, 2^64-4 is -4 and two runs of 2^63 add up to 0: the
		// runs below sum to 4 in int arithmetic.
		"runs of -4 and 8":   rle(4, zigzag(7), math.MaxUint64-3, zigzag(8), 8),
		"runs of 2^63 twice": rle(4, zigzag(7), 1<<63, zigzag(8), 1<<63, zigzag(9), 4),
		"run past the end":   rle(4, zigzag(7), 3, zigzag(8), 2),
		"runs fall short":    rle(4, zigzag(7), 3),
		"zero runs only":     rle(4, zigzag(7), 0, zigzag(8), 0),
		"value, no run":      rle(4, zigzag(7)),
	} {
		if vals, err := DecompressI64(nil, data); err == nil {
			t.Errorf("%s: decoded %v", name, vals)
		}
	}
	if vals, err := DecompressI64(nil, rle(4, zigzag(7), 1, zigzag(-2), 3)); err != nil || !slices.Equal(vals, []int64{7, -2, -2, -2}) {
		t.Fatalf("valid runs: %v, err %v", vals, err)
	}
}

// TestCorruptRowCountAllocatesNothing frames every codec with a row count
// of 2^32-1 over a 16-byte payload that cannot hold that many rows: every
// decoder must refuse it before it sizes anything by the count.
func TestCorruptRowCountAllocatesNothing(t *testing.T) {
	const rows = math.MaxUint32
	frame := func(c Codec, payload ...byte) []byte {
		data := append(frameHeader(nil, c, rows), payload...)
		data = append(data, make([]byte, headerLen+16-len(data))...)
		if len(data) != headerLen+16 {
			t.Fatalf("%v payload of %d bytes", c, len(data)-headerLen)
		}
		return data
	}
	// A PFOR header: base 0, width 1, no exceptions; the packed codes
	// it announces need 512 MiB.
	pfor := []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0}
	runs := []byte{}
	for range 8 {
		runs = append(runs, byte(zigzag(5)), 1) // eight rows, then the payload ends
	}
	i64 := map[string][]byte{
		"plain-i64":  frame(CodecPlainI64),
		"pfor":       frame(CodecPFOR, pfor...),
		"pfor-delta": frame(CodecPFORDelta, pfor...),
		"rle":        frame(CodecRLE, runs...),
	}
	f64 := map[string][]byte{
		"plain-f64": frame(CodecPlainF64),
		"pdict-f64": frame(CodecDictF64, append([]byte{0}, pfor...)...),
	}
	str := map[string][]byte{
		"plain-str": frame(CodecPlainStr, slices.Repeat([]byte{1}, 16)...),
		"pdict":     frame(CodecDict, append([]byte{1, 1, 'a'}, pfor...)...),
	}
	boolean := frame(CodecBoolPack)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var accepted []string
	for name, data := range i64 {
		if _, err := DecompressI64(nil, data); err == nil {
			accepted = append(accepted, "DecompressI64 "+name)
		}
	}
	for name, data := range f64 {
		if _, err := DecompressF64(nil, data); err == nil {
			accepted = append(accepted, "DecompressF64 "+name)
		}
		if _, _, err := DecompressF64Codes(data); err == nil {
			accepted = append(accepted, "DecompressF64Codes "+name)
		}
	}
	for name, data := range str {
		if _, err := DecompressStr(nil, data); err == nil {
			accepted = append(accepted, "DecompressStr "+name)
		}
		if _, _, err := DecompressStrCodes(data); err == nil {
			accepted = append(accepted, "DecompressStrCodes "+name)
		}
	}
	if _, _, _, err := DecompressStrArena(str["plain-str"]); err == nil {
		accepted = append(accepted, "DecompressStrArena plain-str")
	}
	if _, err := DecompressBool(nil, boolean); err == nil {
		accepted = append(accepted, "DecompressBool boolpack")
	}
	runtime.ReadMemStats(&after)
	if len(accepted) > 0 {
		t.Errorf("decoded a frame of %d rows from 16 bytes: %v", rows, accepted)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("refusing the frames allocated %d bytes", d)
	}
}

// BenchmarkUnpackBitsVector decodes one vector's worth (1 024 values) of
// a bit-packed chunk at a time with unpackBits, as a scan that decodes
// per vector would, at widths 4, 12 and 20, beside a plain copy of the
// same 1 024 decoded int64s (ns/value).
func BenchmarkUnpackBitsVector(b *testing.B) {
	const n, vecs = 1024, 64
	dst := make([]int64, n)
	for _, width := range []uint{4, 12, 20} {
		vals := make([]uint64, n*vecs)
		for i := range vals {
			vals[i] = uint64(i*2654435761) & widthMask(width)
		}
		packed := packBits(nil, vals, width)
		b.Run(fmt.Sprintf("unpack/width=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				unpackBits(dst, packed, i%vecs*n, width, 1000)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
		})
	}
	decoded := make([]int64, n*vecs)
	b.Run("copy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := i % vecs * n
			copy(dst, decoded[o:o+n])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
	})
}

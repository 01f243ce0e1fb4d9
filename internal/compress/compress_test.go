package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
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
	data, err := CompressI64(vals, codec)
	if err != nil {
		t.Fatalf("%v compress: %v", codec, err)
	}
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
	plain, _ := CompressI64(vals, CodecPlainI64)
	ratio := float64(len(plain)) / float64(len(data))
	if ratio < 8 {
		t.Fatalf("PFOR ratio %.1f too low (plain %d, pfor %d)", ratio, len(plain), len(data))
	}
}

func TestPFORDeltaCompressesSorted(t *testing.T) {
	vals := sortedInts(10000)
	data := roundtripI64(t, vals, CodecPFORDelta)
	pforOnly, _ := CompressI64(vals, CodecPFOR)
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
		data, err := CompressF64(vals, codec)
		if err != nil {
			t.Fatal(err)
		}
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
		d2, _ := CompressF64(nan, codec)
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
				data, err := CompressStr(vals, codec)
				if err != nil {
					t.Fatal(err)
				}
				out, err := DecompressStr(nil, data)
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
	// All distinct → dict must fall back to plain.
	data, err := CompressStr(vals, CodecDict)
	if err != nil {
		t.Fatal(err)
	}
	codec, _, _, _ := ReadHeader(data)
	if codec != CodecPlainStr {
		t.Fatalf("expected fallback to plain, got %v", codec)
	}
	out, err := DecompressStr(nil, data)
	if err != nil || !reflect.DeepEqual(vals, out) {
		t.Fatal("fallback roundtrip broken")
	}
}

func TestDictCompressesLowCardinality(t *testing.T) {
	vals := manyRepeats()
	dict, _ := CompressStr(vals, CodecDict)
	plain, _ := CompressStr(vals, CodecPlainStr)
	if len(dict)*3 > len(plain) {
		t.Fatalf("dict %d vs plain %d: expected ≥3× savings", len(dict), len(plain))
	}
}

func TestBoolRoundtrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 1000} {
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = i%3 == 0
		}
		data, err := CompressBool(vals)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecompressBool(nil, data)
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

func TestChooseI64Codec(t *testing.T) {
	if c := ChooseI64Codec(sortedInts(5000)); c != CodecPFORDelta {
		t.Errorf("sorted data should pick pfor-delta, got %v", c)
	}
	constant := make([]int64, 5000)
	if c := ChooseI64Codec(constant); c != CodecRLE && c != CodecPFORDelta && c != CodecPFOR {
		t.Errorf("constant data picked %v", c)
	}
	rng := rand.New(rand.NewSource(3))
	if c := ChooseI64Codec(randomInts(rng, 5000)); c != CodecPlainI64 && c != CodecPFOR {
		t.Errorf("random data picked %v", c)
	}
	small := make([]int64, 5000)
	for i := range small {
		small[i] = int64(rng.Intn(50))
	}
	if c := ChooseI64Codec(small); c != CodecPFOR {
		t.Errorf("small-domain data should pick pfor, got %v", c)
	}
	if ChooseI64Codec(nil) != CodecPlainI64 {
		t.Error("empty chunk must pick plain")
	}
}

func TestChooseStrCodec(t *testing.T) {
	if ChooseStrCodec(manyRepeats()) != CodecDict {
		t.Error("low-cardinality strings should pick dict")
	}
	uniq := make([]string, 50)
	for i := range uniq {
		uniq[i] = string(rune('a'+i%26)) + string(rune('0'+i))
	}
	if ChooseStrCodec(uniq) != CodecPlainStr {
		t.Error("unique strings should pick plain")
	}
	if ChooseStrCodec(nil) != CodecPlainStr {
		t.Error("empty chunk must pick plain")
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
	data, _ := CompressF64([]float64{1}, CodecPlainF64)
	if _, err := DecompressI64(nil, data); err == nil {
		t.Fatal("f64 chunk through i64 decoder must error")
	}
	data2, _ := CompressI64([]int64{1, 2, 3}, CodecPFOR)
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
	full, _ := CompressI64(sortedInts(100), CodecPFOR)
	for cut := 5; cut < len(full); cut += 7 {
		if _, err := DecompressI64(nil, full[:cut]); err == nil {
			t.Fatalf("truncation at %d must error", cut)
		}
	}
	fullStr, _ := CompressStr(manyRepeats()[:64], CodecDict)
	for cut := 5; cut < len(fullStr)-1; cut += 5 {
		if _, err := DecompressStr(nil, fullStr[:cut]); err == nil {
			t.Fatalf("dict truncation at %d must error", cut)
		}
	}
	// Unknown codec tags.
	if _, err := CompressI64([]int64{1}, CodecDict); err == nil {
		t.Fatal("string codec on ints must error")
	}
	if _, err := CompressStr([]string{"a"}, CodecPFOR); err == nil {
		t.Fatal("int codec on strings must error")
	}
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
		if _, _, err := DecompressStrArena(data); err == nil {
			t.Errorf("%s: DecompressStrArena accepted the chunk", name)
		}
	}
	if _, _, err := DecompressStrArena(fullStr); err == nil {
		t.Error("DecompressStrArena accepted a dictionary chunk")
	}
	// Offsets are uint32: the encoder refuses a chunk of more bytes before
	// it copies any (4097 headers of one 1 MiB string).
	mib := string(make([]byte, 1<<20))
	if _, err := CompressStr(slices.Repeat([]string{mib}, 4097), CodecPlainStr); err == nil {
		t.Error("a plain-str chunk of 4 GiB + 1 MiB was encoded")
	}
}

func TestI64RoundtripPropertyAllCodecs(t *testing.T) {
	for _, codec := range []Codec{CodecPFOR, CodecPFORDelta, CodecRLE} {
		codec := codec
		f := func(vals []int64) bool {
			data, err := CompressI64(vals, codec)
			if err != nil {
				return false
			}
			out, err := DecompressI64(nil, data)
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
		data, err := CompressStr(vals, CodecDict)
		if err != nil {
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
	data, _ := CompressI64([]int64{1, 2, 3}, CodecPlainI64)
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
	data, _ := CompressI64([]int64{5, 6, 7}, CodecPFOR)
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
// DecompressStrCodes either codes and a dictionary of at most MaxCodeDict
// entries with no strings, dict[codes[i]] == want[i], or (a plain chunk, a
// larger dictionary) want's strings and no codes.
func checkCodes(t *testing.T, data []byte, want []string, wantCodes bool) {
	t.Helper()
	plain, err := DecompressStr(nil, data)
	if err != nil || !reflect.DeepEqual(plain, want) {
		t.Fatalf("DecompressStr: %v (err %v)", plain, err)
	}
	strs, codes, dict, err := DecompressStrCodes(data)
	if err != nil {
		t.Fatalf("DecompressStrCodes: %v", err)
	}
	if (codes != nil) != wantCodes {
		t.Fatalf("codes present = %v, want %v (dict of %d)", codes != nil, wantCodes, len(dict))
	}
	if codes == nil {
		if dict != nil || !reflect.DeepEqual(strs, want) {
			t.Fatalf("DecompressStrCodes without codes: strings %v, dictionary %v", strs, dict)
		}
		return
	}
	if strs != nil {
		t.Fatalf("a coded chunk decoded %d strings as well", len(strs))
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
	checkCodes(t, data, same, true)

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
	checkCodes(t, data, rare, true)

	// 256 entries still carry one-byte codes; 257 do not.
	for _, nd := range []int{MaxCodeDict, MaxCodeDict + 1} {
		w := words(nd)
		vals := make([]string, 4*nd)
		for i := range vals {
			vals[i] = w[(i*7)%nd]
		}
		data, _ := CompressStr(vals, CodecDict)
		if c, _, _, _ := ReadHeader(data); c != CodecDict {
			t.Fatalf("%d values not dictionary-coded", nd)
		}
		checkCodes(t, data, vals, nd <= MaxCodeDict)
	}

	// Plain chunks carry no codes.
	checkCodes(t, mustStr(t, []string{"a", "b"}, CodecPlainStr), []string{"a", "b"}, false)
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

func mustStr(t *testing.T, vals []string, c Codec) []byte {
	t.Helper()
	data, err := CompressStr(vals, c)
	if err != nil {
		t.Fatal(err)
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
			if _, _, _, err := DecompressStrCodes(data); err == nil {
				t.Fatal("DecompressStrCodes accepted an out-of-range code")
			}
		})
	}
	// The same shapes in range decode, and codes whose frame of reference
	// is not 0.
	checkCodes(t, dictChunk(full, []int64{300 - 45, 1, 0}), []string{full[255], full[1], full[0]}, true)
	checkCodes(t, dictChunk(small, []int64{2, 1, 2, 2, 1, 1, 2, 1, 2, 1}), []string{small[2], small[1], small[2], small[2],
		small[1], small[1], small[2], small[1], small[2], small[1]}, true)
	checkCodes(t, dictChunk(full, []int64{255, 254, 255}), []string{full[255], full[254], full[255]}, true)
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
	checkCodes(t, data, want, true)
	for cut := len(data) - 1; cut > len(data)-6; cut-- {
		if _, _, _, err := DecompressStrCodes(data[:cut]); err == nil {
			t.Fatalf("truncated exception list at %d decoded", cut)
		}
	}
	// The last exception moved past the last row: 580 + 127.
	bad := append([]byte(nil), data...)
	bad[len(bad)-2] = 0x7f
	if _, _, _, err := DecompressStrCodes(bad); err == nil {
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

// checkF64Dict compresses vals asking for PDICT and checks that the frame
// is PDICT exactly when vals hold at most MaxCodeDict bit patterns, that
// ChooseF64Codec never picks PDICT past that, and that both decoders give
// back every bit pattern: values, and codes over the dictionary.
func checkF64Dict(t *testing.T, vals []float64) {
	t.Helper()
	patterns := map[uint64]bool{}
	for _, b := range f64Bits(vals) {
		patterns[b] = true
	}
	fits := len(vals) > 0 && len(patterns) <= MaxCodeDict
	data, err := CompressF64(vals, CodecDictF64)
	if err != nil {
		t.Fatal(err)
	}
	codec, _, _, _ := ReadHeader(data)
	if (codec == CodecDictF64) != fits || !fits && ChooseF64Codec(vals) == CodecDictF64 {
		t.Fatalf("%d rows of %d patterns framed %v, chosen %v", len(vals), len(patterns), codec, ChooseF64Codec(vals))
	}
	out, err := DecompressF64(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f64Bits(out), f64Bits(vals)) {
		t.Fatalf("values lost bits: %x, want %x", f64Bits(out), f64Bits(vals))
	}
	plain, codes, dict, err := DecompressF64Codes(data)
	if err != nil {
		t.Fatal(err)
	}
	if fits {
		if plain != nil || len(codes) != len(vals) || len(dict) != len(patterns) {
			t.Fatalf("coded decode: %d values, %d codes over %d entries", len(plain), len(codes), len(dict))
		}
		plain = make([]float64, len(codes))
		for i, c := range codes {
			plain[i] = dict[c]
		}
	} else if codes != nil || dict != nil {
		t.Fatalf("a plain chunk decoded to %d codes", len(codes))
	}
	if !slices.Equal(f64Bits(plain), f64Bits(vals)) {
		t.Fatalf("codes lost bits: %x, want %x", f64Bits(plain), f64Bits(vals))
	}
}

// TestF64DictLimits: 255 and 256 bit patterns code, 257 stay plain; −0
// and +0 and NaNs of different payloads are distinct entries.
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
		if want := n <= MaxCodeDict && n > 1; (ChooseF64Codec(vals) == CodecDictF64) != want {
			t.Errorf("%d patterns: chose %v", n, ChooseF64Codec(vals))
		}
	}
	checkF64Dict(t, nil)
}

// FuzzF64Dict: a DOUBLE chunk round-trips bit-exactly through PDICT, or
// falls back to plain past MaxCodeDict patterns. Each two bytes of the
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

// BenchmarkDecompressF64 decodes a 64 Ki-row DOUBLE chunk of 50 values:
// plain, to values, and PDICT, to its codes (ns/row).
func BenchmarkDecompressF64(b *testing.B) {
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = float64(i*7%50 + 1)
	}
	for _, codec := range []Codec{CodecPlainF64, CodecDictF64} {
		data, err := CompressF64(vals, codec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(codec.String(), func(b *testing.B) {
			for range b.N {
				if _, _, _, err := DecompressF64Codes(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/row")
		})
	}
}

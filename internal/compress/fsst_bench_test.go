package compress_test

import (
	"sync"
	"testing"

	"vectorwise/internal/compress"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
)

// lineComments returns the first 64 K l_comment values of TPC-H at SF
// 0.011, a row group's worth, generated once.
var lineComments = sync.OnceValues(func() ([]string, error) {
	var out []string
	err := tpch.GenerateColumns(0.011, func(name string, _ *vtypes.Schema, cols []any) error {
		if name == "lineitem" {
			out = cols[tpch.LComment].([]string)[:64*1024]
		}
		return nil
	})
	return out, err
})

func benchComments(b *testing.B) []string {
	vals, err := lineComments()
	if err != nil {
		b.Fatal(err)
	}
	return vals
}

// fsstComments encodes vals, which EncodeStr codes as FSST.
func fsstComments(b *testing.B, vals []string) []byte {
	chunk, codec, err := compress.EncodeStr(vals)
	if err != nil || codec != compress.CodecFSST {
		b.Fatalf("comments coded %v (err %v)", codec, err)
	}
	return chunk
}

func textBytes(vals []string) int64 {
	var n int64
	for _, s := range vals {
		n += int64(len(s))
	}
	return n
}

// BenchmarkFSSTEncode encodes the rows of a 64 K-row chunk of l_comment
// with the chunk's trained table (BenchmarkFSSTTrain times the training),
// and reports the whole FSST chunk's size against plain-str's.
func BenchmarkFSSTEncode(b *testing.B) {
	vals := benchComments(b)
	encode := compress.FSSTRowEncoder(vals)
	codes := encode(nil)
	b.SetBytes(textBytes(vals))
	for b.Loop() {
		codes = encode(codes[:0])
	}
	chunk := fsstComments(b, vals)
	b.ReportMetric(float64(compress.PlainStrSize(vals))/float64(len(chunk)), "ratio")
}

// BenchmarkFSSTTrain trains the symbol table of a 64 K-row chunk of
// l_comment: the chunk encoded to no row.
func BenchmarkFSSTTrain(b *testing.B) {
	vals := benchComments(b)
	for b.Loop() {
		compress.TrainFSST(vals)
	}
}

// BenchmarkFSSTDecode decodes every row of a 64 K-row chunk of l_comment
// into one reused buffer, as a scan decodes the rows it reads.
func BenchmarkFSSTDecode(b *testing.B) {
	vals := benchComments(b)
	off, codes, sym, err := compress.DecompressStrArena(fsstComments(b, vals))
	if err != nil || sym == nil {
		b.Fatalf("not an fsst chunk: %v", err)
	}
	b.SetBytes(textBytes(vals))
	buf := make([]byte, 0, 4096)
	for b.Loop() {
		for i := range vals {
			buf = sym.Decode(buf[:0], codes[off[i]:off[i+1]])
		}
	}
}

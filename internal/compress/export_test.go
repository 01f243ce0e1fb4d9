package compress

// TrainFSST trains the FSST symbol table of vals, for benchmarks outside
// the package.
func TrainFSST(vals []string) { newFSSTTrainer().train(vals) }

// FSSTRowEncoder trains the FSST symbol table of vals and returns a
// function that appends every row's codes to dst with it, for benchmarks
// outside the package.
func FSSTRowEncoder(vals []string) func(dst []byte) []byte {
	tr := newFSSTTrainer()
	tr.train(vals)
	return func(dst []byte) []byte {
		for _, s := range vals {
			dst = tr.table.encode(dst, s)
		}
		return dst
	}
}

// PlainStrSize is the size of vals' plain-str chunk, for benchmarks outside
// the package.
func PlainStrSize(vals []string) int { return plainStrSize(vals) }

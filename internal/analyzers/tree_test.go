package analyzers_test

import (
	"testing"

	"vectorwise/internal/analyzers"
)

// TestTreeIsClean runs the full analyzer suite over the real repository
// — exactly what `go run ./cmd/vwlint ./...` does in CI — and demands
// zero diagnostics. This is the regression test for every violation the
// suite found and this tree fixed: reverting the execCreateLocked
// rename (lockdiscipline) or dropping the //vw:owns transfer annotation
// on openRowsLocked's success return (refbalance) fails here.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analyzers.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	findings := analyzers.Run(pkgs, analyzers.All())
	for _, f := range findings {
		t.Errorf("vwlint: %s", f)
	}
}

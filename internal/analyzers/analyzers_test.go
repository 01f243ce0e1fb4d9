package analyzers_test

import (
	"testing"

	"vectorwise/internal/analyzers"
	"vectorwise/internal/analyzers/analyzertest"
)

func TestLockDiscipline(t *testing.T) {
	analyzertest.Run(t, "lockdiscipline", analyzers.LockDiscipline)
}

func TestSelAlias(t *testing.T) {
	analyzertest.Run(t, "selalias", analyzers.SelAlias)
}

func TestCtxNext(t *testing.T) {
	analyzertest.Run(t, "ctxnext", analyzers.CtxNext)
}

func TestRefBalance(t *testing.T) {
	analyzertest.Run(t, "refbalance", analyzers.RefBalance)
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analyzers.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing a name, doc, or run function", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 4 {
		t.Errorf("expected the 4-analyzer suite, got %d", len(seen))
	}
}

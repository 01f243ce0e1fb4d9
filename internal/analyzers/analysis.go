// Package analyzers is vwlint's analyzer suite: four static checks that
// machine-enforce the engine's concurrency and vector-lifetime
// invariants (lock discipline, selection-vector aliasing, per-batch
// cancellation, snapshot refcount balance). The
// invariants themselves are documented in docs/ARCHITECTURE.md under
// "Engine invariants"; each analyzer's Doc string states the rule it
// checks and the canonical fix.
//
// The suite is self-contained on the standard library: packages are
// loaded through `go list -export` plus the gc export-data importer
// (see loader.go), so it needs no dependency on golang.org/x/tools. The
// Analyzer/Pass surface deliberately mirrors go/analysis so the
// checkers could migrate to the upstream framework verbatim if the
// module ever takes on the dependency.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //vwlint:ignore directives. Lowercase, no spaces.
	Name string
	// Doc states the invariant being checked and the canonical fix.
	Doc string
	// Run reports violations found in one package via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one package's syntax and type information through an
// analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation, position still unresolved.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		LockDiscipline,
		SelAlias,
		CtxNext,
		RefBalance,
	}
}

// Command vwlint is the engine's invariant checker: a multichecker
// running the internal/analyzers suite — lockdiscipline, selalias,
// ctxnext, refbalance — over the requested packages.
//
// Usage:
//
//	go run ./cmd/vwlint ./...          # whole tree (what CI runs)
//	go run ./cmd/vwlint -list          # describe the analyzers
//
// Diagnostics print as path:line:col: analyzer: message; the exit code
// is 1 when any diagnostic survives //vwlint:ignore suppression, 2 on
// load errors. Only non-test Go files are analyzed. Suppression
// directives take the form
//
//	//vwlint:ignore <analyzer>[,<analyzer>] <reason>
//
// where the reason is mandatory and unknown analyzer names are
// themselves diagnostics.
package main

import (
	"flag"
	"fmt"
	"os"

	"vectorwise/internal/analyzers"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and their invariants, then exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vwlint [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analyzers.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	findings := analyzers.Run(pkgs, suite)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "vwlint: %d invariant violation(s)\n", len(findings))
		os.Exit(1)
	}
}

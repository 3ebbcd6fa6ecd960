// Command wowvet is the repository's domain-specific static-analysis suite:
// five analyzers that prove the engine's lifecycle, locking, wire and
// API-surface invariants (see docs/ANALYSIS.md).
//
// Run it with no arguments from the module root:
//
//	wowvet
//
// It loads every package of the module, plus the modules nested in it
// (bench/), as one program. closecheck and errpropagate run on each module
// package; lockorder, wireconform and deadapi run once over the program.
// It takes no package patterns, so no run ever checks part of the module.
//
// It exits 0 when the tree is clean, 1 when diagnostics were reported, and
// 2 on usage or internal errors. Findings can be suppressed one line at a
// time with `//wowvet:ignore <analyzer> -- <justification>`; a suppression
// without a justification is itself a finding.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/closecheck"
	"repro/internal/analysis/deadapi"
	"repro/internal/analysis/errpropagate"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/wireconform"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		closecheck.Analyzer,
		lockorder.Analyzer,
		wireconform.Analyzer,
		errpropagate.Analyzer,
		deadapi.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	switch {
	case len(args) == 1 && (args[0] == "help" || args[0] == "-h" || args[0] == "-help" || args[0] == "--help"):
		usage(os.Stdout)
		return 0
	case len(args) > 0:
		usage(os.Stderr)
		return 2
	}
	prog, err := analysis.LoadPackages(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wowvet:", err)
		return 2
	}
	diags, err := analysis.RunPackages(prog, analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "wowvet:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "wowvet proves the repository's lifecycle, locking, wire and API-surface invariants.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "usage: wowvet    (from the module root; takes no package arguments)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "It analyzes the whole module plus the modules nested in it, as one program.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "analyzers:")
	for _, a := range analyzers() {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "suppress one finding with a justified comment on or above its line:")
	fmt.Fprintln(w, "  //wowvet:ignore <analyzer> -- <why the invariant holds here>")
}

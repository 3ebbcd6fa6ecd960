// Command wowvet is the repository's domain-specific static-analysis suite:
// five analyzers that prove the engine's lifecycle, locking, wire and
// API-surface invariants (see docs/ANALYSIS.md).
//
// It runs in two modes:
//
//   - standalone, over the whole module at once (strongest for lockorder,
//     which then sees every package's acquisition graph in one process, and
//     the only mode that runs deadapi, which needs every caller):
//
//     wowvet ./...
//
//   - as a `go vet` tool, speaking the unitchecker protocol (one compilation
//     unit per process, cross-package state carried in serialized facts):
//
//     go vet -vettool=$(command -v wowvet) ./...
//
// Both modes exit 0 when the tree is clean, 1 when diagnostics were
// reported, and 2 on internal errors. Findings can be suppressed one line
// at a time with `//wowvet:ignore <analyzer> -- <justification>`; a
// suppression without a justification is itself a finding.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"

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
	// The `go vet -vettool` protocol probes the tool before use:
	// `-V=full` must print a content-addressed version line, `-flags` the
	// tool's extra flags as JSON. Handle both before anything else.
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			return printVersion()
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			return 0
		case arg == "-V" || strings.HasPrefix(arg, "-V="):
			fmt.Fprintln(os.Stderr, "wowvet: unsupported flag value: use -V=full")
			return 2
		case arg == "help" || arg == "-h" || arg == "-help" || arg == "--help":
			usage()
			return 0
		}
	}

	// One *.cfg argument: a vet compilation unit.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return analysis.RunUnit(args[0], analyzers(), os.Stderr)
	}

	// Standalone: analyze the module packages matching the patterns.
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wowvet:", err)
		return 2
	}
	prog, err := analysis.LoadPackages(cwd, patterns...)
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

// printVersion implements the -V=full contract go vet uses to fingerprint
// the tool for its action cache: the executable path and a sha256 of its
// own binary.
func printVersion() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wowvet:", err)
		return 2
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wowvet:", err)
		return 2
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, "wowvet:", err)
		return 2
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)))
	return 0
}

func usage() {
	fmt.Println("wowvet proves the repository's lifecycle, locking, wire and API-surface invariants.")
	fmt.Println()
	fmt.Println("usage:")
	fmt.Println("  wowvet [packages]                      analyze the module (default ./...)")
	fmt.Println("  go vet -vettool=$(command -v wowvet)   run under go vet per compilation unit")
	fmt.Println()
	fmt.Println("deadapi needs the whole program: it runs only for ./... from the module root,")
	fmt.Println("never under go vet.")
	fmt.Println()
	fmt.Println("analyzers:")
	for _, a := range analyzers() {
		fmt.Printf("  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Println()
	fmt.Println("suppress one finding with a justified comment on or above its line:")
	fmt.Println("  //wowvet:ignore <analyzer> -- <why the invariant holds here>")
}

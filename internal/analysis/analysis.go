// Package analysis is the stdlib-only core of wowvet, the repository's
// domain-specific static-analysis suite. It mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, diagnostics, package
// facts — without depending on it (the tree builds with no third-party
// modules), and adds the two drivers the tool needs:
//
//   - a standalone whole-module driver (LoadPackages + RunPackages) behind
//     `wowvet ./...`, which sees every package at once, and
//   - the `go vet -vettool` unit protocol (RunUnit), which analyzes one
//     compilation unit per process and carries cross-package state in
//     serialized facts, exactly like x/tools' unitchecker.
//
// Analyzers communicate across packages through JSON-encoded package facts:
// an analyzer running on package P may export one fact for P and import the
// facts its dependencies exported, in both drivers.
//
// Findings can be suppressed one line at a time with a justification:
//
//	//wowvet:ignore closecheck -- the cursor is owned by the caller of X
//
// A suppression without the `-- justification` tail is itself reported (and
// cannot be suppressed), so CI fails on blanket silencing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant it proves.
	Doc string
	// Run analyzes one package. It reports findings through the Pass and
	// returns an error only for internal failures (which abort the drive).
	Run func(*Pass) error
	// RunProgram, set instead of Run, analyzes the whole program at once.
	// Only the whole-module driver runs it, and only over a whole module:
	// a `go vet` unit sees its dependencies but never its dependents, so a
	// question like "does anything call this?" has no answer there.
	RunProgram func(*ProgramPass) error
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// InModule reports whether the package belongs to the module under
	// analysis (as opposed to a dependency the driver only loaded for type
	// information). Analyzers skip packages outside the module.
	InModule bool
	// ModuleDir is the module root directory, when known. Analyzers that
	// check repository-level artifacts (docs/WIRE.md) resolve paths off it.
	ModuleDir string

	report func(Diagnostic)
	facts  *FactStore
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(newDiagnostic(p.Fset, p.Analyzer, pos, format, args))
}

// A ProgramPass carries a whole-program analyzer's view of every loaded
// package, nested-module ones included.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(newDiagnostic(p.Prog.Fset, p.Analyzer, pos, format, args))
}

func newDiagnostic(fset *token.FileSet, a *Analyzer, pos token.Pos, format string, args []any) Diagnostic {
	return Diagnostic{
		Pos:      fset.Position(pos),
		Analyzer: a.Name,
		Message:  fmt.Sprintf(format, args...),
	}
}

// ExportPackageFact records fact (any JSON-serializable value) for the
// current package under the current analyzer. Later passes of the same
// analyzer over packages that import this one can read it back.
func (p *Pass) ExportPackageFact(fact any) error {
	return p.facts.set(p.Analyzer.Name, p.Pkg.Path(), fact)
}

// ImportPackageFact decodes the fact the current analyzer exported for the
// package with the given path into out, reporting whether one exists.
func (p *Pass) ImportPackageFact(path string, out any) bool {
	return p.facts.get(p.Analyzer.Name, path, out)
}

// --- suppressions -------------------------------------------------------------

// ignorePrefix opens a suppression comment.
const ignorePrefix = "//wowvet:ignore"

// suppression is one parsed //wowvet:ignore comment.
type suppression struct {
	file      string
	line      int  // the comment's line
	ownLine   bool // the comment starts its line and also covers the next one
	analyzers []string
	justified bool
	pos       token.Position
}

// collectSuppressions parses every //wowvet:ignore comment in the files.
// Comments without a "-- justification" tail are returned as diagnostics in
// bad (analyzer "wowvet"); these are never themselves suppressible.
func collectSuppressions(fset *token.FileSet, files []*ast.File) (sups []suppression, bad []Diagnostic) {
	for _, f := range files {
		codeCols := firstCodeColumns(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				pos := fset.Position(c.Pos())
				spec, justification, found := strings.Cut(rest, "--")
				names := strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
				if !found || strings.TrimSpace(justification) == "" || len(names) == 0 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "wowvet",
						Message:  "suppression without a justification: write `//wowvet:ignore <analyzer> -- <why the invariant holds here>`",
					})
					continue
				}
				col, hasCode := codeCols[pos.Line]
				sups = append(sups, suppression{
					file:      pos.Filename,
					line:      pos.Line,
					ownLine:   !hasCode || col >= pos.Column,
					analyzers: names,
					justified: true,
					pos:       pos,
				})
			}
		}
	}
	return sups, bad
}

func (s suppression) covers(d Diagnostic) bool {
	if d.Pos.Filename != s.file {
		return false
	}
	// A comment trailing code covers that line; a comment on its own line
	// covers the line below it (and its own, for whole-line diagnostics).
	if d.Pos.Line != s.line && !(s.ownLine && d.Pos.Line == s.line+1) {
		return false
	}
	for _, name := range s.analyzers {
		if name == d.Analyzer || name == "all" {
			return true
		}
	}
	return false
}

// applySuppressions filters diags through the files' //wowvet:ignore
// comments and appends a diagnostic for every unjustified suppression.
func applySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	sups, bad := collectSuppressions(fset, files)
	return append(suppress(sups, diags), bad...)
}

// suppress drops the diagnostics a suppression covers.
func suppress(sups []suppression, diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, s := range sups {
			if s.covers(d) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// firstCodeColumns maps each line holding a non-comment token to the column
// where its code starts, so suppressions can tell a trailing comment from a
// directive on a line of its own.
func firstCodeColumns(fset *token.FileSet, f *ast.File) map[int]int {
	cols := make(map[int]int)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !n.Pos().IsValid() {
			return true
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return true
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return true
		}
		pos := fset.Position(n.Pos())
		if col, ok := cols[pos.Line]; !ok || pos.Column < col {
			cols[pos.Line] = pos.Column
		}
		return true
	})
	return cols
}

// sortDiagnostics orders diagnostics by position for deterministic output.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// PathHasSuffix reports whether the import path ends with the given
// slash-separated suffix on a path-segment boundary: "repro/internal/server"
// matches "internal/server" but "repro/internal/server/wire" does not.
// Analyzers use it so their fixtures (whose import paths lack the module
// prefix) and the real tree match the same rules.
func PathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

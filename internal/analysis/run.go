package analysis

import (
	"fmt"
	"go/ast"
)

// RunPackages runs each per-package analyzer on every module package of the
// program and each whole-program analyzer once over the program. Packages
// of nested modules are never analyzed. The returned diagnostics are
// position-sorted and filtered through the module's //wowvet:ignore
// suppressions; unjustified suppressions are appended as findings of their
// own.
func RunPackages(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	var files []*ast.File
	for _, pkg := range prog.Packages {
		if pkg.Nested {
			continue
		}
		files = append(files, pkg.Files...)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
				report:    report,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		pass := &ProgramPass{Analyzer: a, Prog: prog, report: report}
		if err := a.RunProgram(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags = applySuppressions(prog.Fset, files, diags)
	sortDiagnostics(diags)
	return diags, nil
}

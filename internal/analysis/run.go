package analysis

import (
	"fmt"
	"go/ast"
)

// RunPackages runs every analyzer over every package of the program, in the
// program's dependency order, sharing one fact store so cross-package
// analyzers (wireconform, lockorder) see their dependencies' facts. Then, if
// the program is a whole module, it runs the whole-program analyzers once.
// Packages of nested modules are never analyzed. The returned diagnostics
// are position-sorted and already filtered through //wowvet:ignore
// suppressions; unjustified suppressions are appended as findings of their
// own.
func RunPackages(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := newFactStore()
	var all []Diagnostic
	var files []*ast.File
	for _, pkg := range prog.Packages {
		if pkg.Nested {
			continue
		}
		diags, err := runOnPackage(prog, pkg, analyzers, facts)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
		files = append(files, pkg.Files...)
	}
	if prog.Whole {
		var diags []Diagnostic
		for _, a := range analyzers {
			if a.RunProgram == nil {
				continue
			}
			pass := &ProgramPass{
				Analyzer: a,
				Prog:     prog,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.RunProgram(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		}
		// The per-package runs already reported unjustified suppressions.
		sups, _ := collectSuppressions(prog.Fset, files)
		all = append(all, suppress(sups, diags)...)
	}
	sortDiagnostics(all)
	return all, nil
}

func runOnPackage(prog *Program, pkg *LoadedPackage, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
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
			InModule:  true,
			ModuleDir: prog.ModuleDir,
			facts:     facts,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	return applySuppressions(prog.Fset, pkg.Files, diags), nil
}

// Package analysistest runs wowvet analyzers over golden source fixtures,
// mirroring golang.org/x/tools/go/analysis/analysistest without the
// dependency. A fixture is a directory shaped like a tiny module:
//
//	testdata/<name>/
//	    docs/WIRE.md        (only for analyzers that read repo artifacts)
//	    src/<pkgpath>/*.go
//
// A fixture package at or below a directory holding a go.mod stands for a
// package of a nested module: it is loaded for its references only, like
// bench/ in the real tree. The fixture is a whole program, like the tree
// wowvet loads.
//
// Fixture sources carry expectations as comments on the offending line:
//
//	rows, _ := q.Run() // want `is discarded`
//
// Each `want` takes one or more Go-quoted regular expressions; every
// reported diagnostic must match an expectation on its exact line and every
// expectation must be matched, so the test fails both on missing and on
// surplus diagnostics. A fixture package with no want comments asserts the
// analyzer is silent on it.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run analyzes the fixture's packages (given as import paths under
// fixtureDir/src, in dependency order) with the analyzers and compares the
// diagnostics against the fixtures' want comments.
//
//wowvet:ignore deadapi -- test apparatus: only the analyzers' _test.go files import it
func Run(t *testing.T, fixtureDir string, analyzers []*analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	abs, err := filepath.Abs(fixtureDir)
	if err != nil {
		t.Fatalf("resolving fixture dir: %v", err)
	}
	prog, err := load(abs, pkgPaths)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixtureDir, err)
	}
	diags, err := analysis.RunPackages(prog, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", fixtureDir, err)
	}
	check(t, prog, diags)
}

// load parses and type-checks the fixture packages in the given order,
// resolving imports first against the fixture itself and then against the
// standard library.
func load(fixtureDir string, pkgPaths []string) (*analysis.Program, error) {
	fset := token.NewFileSet()
	prog := &analysis.Program{Fset: fset, ModuleDir: fixtureDir}

	// Parse everything first so stdlib imports are known before any
	// type-checking starts.
	parsed := make(map[string][]*ast.File)
	stdImports := make(map[string]bool)
	for _, path := range pkgPaths {
		dir := filepath.Join(fixtureDir, "src", filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("fixture package %s has no Go files", path)
		}
		parsed[path] = files
		for _, f := range files {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if !isFixturePath(pkgPaths, p) {
					stdImports[p] = true
				}
			}
		}
	}

	var stdPaths []string
	for p := range stdImports {
		stdPaths = append(stdPaths, p)
	}
	sort.Strings(stdPaths)
	exports, err := analysis.StdlibExports(stdPaths)
	if err != nil {
		return nil, err
	}
	imp := &fixtureImporter{
		local: make(map[string]*types.Package),
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
	}

	for _, path := range pkgPaths {
		pkg, info, err := analysis.TypeCheck(fset, path, parsed[path], imp)
		if err != nil {
			return nil, err
		}
		imp.local[path] = pkg
		prog.Packages = append(prog.Packages, &analysis.LoadedPackage{
			Path:   path,
			Files:  parsed[path],
			Pkg:    pkg,
			Info:   info,
			Nested: inNestedModule(filepath.Join(fixtureDir, "src"), path),
		})
	}
	return prog, nil
}

// inNestedModule reports whether a go.mod sits in the package's directory
// or in one of its ancestors below src.
func inNestedModule(src, pkgPath string) bool {
	for p := pkgPath; p != "."; p = path.Dir(p) {
		if _, err := os.Stat(filepath.Join(src, filepath.FromSlash(p), "go.mod")); err == nil {
			return true
		}
	}
	return false
}

func isFixturePath(pkgPaths []string, p string) bool {
	for _, fp := range pkgPaths {
		if fp == p {
			return true
		}
	}
	return false
}

// fixtureImporter resolves fixture-internal imports before stdlib ones.
type fixtureImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (f *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := f.local[path]; ok {
		return pkg, nil
	}
	return f.std.Import(path)
}

// expectation is one want regexp anchored to a file and line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`(?://|/\*)\s*want\s+(.*)`)

// check compares diagnostics with the fixtures' want comments.
func check(t *testing.T, prog *analysis.Program, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					rest := strings.TrimSpace(strings.TrimSuffix(m[1], "*/"))
					for rest != "" {
						quoted, err := strconv.QuotedPrefix(rest)
						if err != nil {
							t.Errorf("%s: malformed want comment: %q", pos, rest)
							break
						}
						pattern, err := strconv.Unquote(quoted)
						if err != nil {
							t.Errorf("%s: malformed want pattern %q: %v", pos, quoted, err)
							break
						}
						re, err := regexp.Compile(pattern)
						if err != nil {
							t.Errorf("%s: bad want regexp %q: %v", pos, pattern, err)
							break
						}
						wants = append(wants, &expectation{
							file: pos.Filename, line: pos.Line, re: re, raw: pattern,
						})
						rest = strings.TrimSpace(rest[len(quoted):])
					}
				}
			}
		}
	}

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

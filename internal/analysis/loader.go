package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A LoadedPackage is one module package parsed and type-checked from source,
// ready to be analyzed.
type LoadedPackage struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Nested marks a package of a module nested inside the analyzed one
	// (bench/): whole-program analyzers count its references, and no
	// analyzer reports findings in it.
	Nested bool
}

// A Program is the standalone driver's whole-module view: every package the
// patterns matched, in dependency order, over one shared file set.
type Program struct {
	Fset      *token.FileSet
	Packages  []*LoadedPackage
	ModuleDir string
	// Whole reports that the program is the entire module plus the modules
	// nested in it, so whole-program analyzers can run.
	Whole bool
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	Module     *struct {
		Path string
		Dir  string
	}
}

// LoadPackages loads the packages matching the patterns (plus type
// information for their dependencies) without any third-party machinery: it
// drives `go list -export` for package metadata and compiled export data,
// parses the matched packages' sources, and type-checks them against their
// dependencies' export files. Test files are not loaded — wowvet's
// invariants are about production code. Loading "./..." from the module root
// also loads the modules nested below it as Nested packages and marks the
// program Whole.
func LoadPackages(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog := &Program{Fset: token.NewFileSet()}
	moduleDir, err := loadModule(prog, dir, patterns, false)
	if err != nil {
		return nil, err
	}
	prog.ModuleDir = moduleDir
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if len(patterns) != 1 || patterns[0] != "./..." || abs != moduleDir || moduleDir == "" {
		return prog, nil
	}
	// The whole module: add the modules nested in it, which its own
	// `./...` never matches, so their references count too.
	nested, err := nestedModules(moduleDir)
	if err != nil {
		return nil, err
	}
	for _, nd := range nested {
		if _, err := loadModule(prog, nd, []string{"./..."}, true); err != nil {
			return nil, err
		}
	}
	prog.Whole = true
	return prog, nil
}

// loadModule lists the packages matching the patterns in dir, type-checks
// them from source against their dependencies' export data, appends them to
// prog in dependency order and returns the listed module's root directory.
// Each call has its own importer, so objects are not shared across calls.
func loadModule(prog *Program, dir string, patterns []string, nested bool) (string, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Imports,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}

	byPath := make(map[string]*listedPackage)
	var targets []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			if err == io.EOF {
				break
			}
			return "", fmt.Errorf("go list output: %w", err)
		}
		byPath[lp.ImportPath] = lp
		if !lp.DepOnly && !lp.Standard && len(lp.GoFiles) > 0 {
			targets = append(targets, lp)
		}
	}

	exportLookup := func(path string) (io.ReadCloser, error) {
		lp, ok := byPath[path]
		if !ok || lp.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(lp.Export)
	}
	imp := importer.ForCompiler(prog.Fset, "gc", exportLookup)

	moduleDir := ""
	loaded := make(map[string]bool)
	var visit func(lp *listedPackage) error
	visiting := make(map[string]bool)
	visit = func(lp *listedPackage) error {
		if loaded[lp.ImportPath] || visiting[lp.ImportPath] {
			return nil
		}
		visiting[lp.ImportPath] = true
		defer delete(visiting, lp.ImportPath)
		// Dependency-first order, so facts exported by an imported package
		// are available when its importers are analyzed.
		for _, path := range lp.Imports {
			if dep, ok := byPath[path]; ok && !dep.DepOnly && !dep.Standard && len(dep.GoFiles) > 0 {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		pkg, err := typeCheckListed(prog.Fset, lp, imp)
		if err != nil {
			return err
		}
		pkg.Nested = nested
		loaded[lp.ImportPath] = true
		prog.Packages = append(prog.Packages, pkg)
		if moduleDir == "" && lp.Module != nil {
			moduleDir = lp.Module.Dir
		}
		return nil
	}
	for _, lp := range targets {
		if err := visit(lp); err != nil {
			return "", err
		}
	}
	return moduleDir, nil
}

// nestedModules returns the directories below root that hold a go.mod of
// their own, skipping what the go command skips: testdata, vendor and
// directories whose names start with "." or "_".
func nestedModules(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		name := d.Name()
		if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// typeCheckListed parses and type-checks one listed package from source.
func typeCheckListed(fset *token.FileSet, lp *listedPackage, imp types.Importer) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, info, err := TypeCheck(fset, lp.ImportPath, files, imp)
	if err != nil {
		return nil, err
	}
	return &LoadedPackage{
		Path:  lp.ImportPath,
		Files: files,
		Pkg:   pkg,
		Info:  info,
	}, nil
}

// TypeCheck type-checks one package's parsed files with the standard
// go/types configuration every driver shares.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := &types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

// StdlibExports resolves export-data files for the given standard-library
// import paths (the test fixture loader uses it so fixtures can import fmt,
// errors, sync, ...). It shells out to `go list -export` once.
func StdlibExports(paths []string) (map[string]string, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, paths...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(paths, " "), err, stderr.String())
	}
	out := make(map[string]string)
	dec := json.NewDecoder(&stdout)
	for {
		var lp struct{ ImportPath, Export string }
		if err := dec.Decode(&lp); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		if lp.Export != "" {
			out[lp.ImportPath] = lp.Export
		}
	}
	return out, nil
}

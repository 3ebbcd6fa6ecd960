package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// UnitConfig is the JSON compilation-unit description `go vet` hands a
// -vettool (the x/tools unitchecker Config; field names are the protocol).
type UnitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnit analyzes the single compilation unit described by the .cfg file,
// following the `go vet -vettool` protocol: diagnostics go to stderr, facts
// for this unit (merged with its dependencies') are written to VetxOutput,
// and the exit code is 0 when clean, 1 when findings were reported. It
// returns the exit code rather than calling os.Exit, so main stays testable.
func RunUnit(configFile string, analyzers []*Analyzer, stderr io.Writer) int {
	cfg, err := readUnitConfig(configFile)
	if err != nil {
		fmt.Fprintln(stderr, "wowvet:", err)
		return 2
	}

	fset := token.NewFileSet()
	var files []*ast.File
	parseFailed := false
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				parseFailed = true
				break
			}
			fmt.Fprintln(stderr, "wowvet:", err)
			return 2
		}
		files = append(files, f)
	}

	// Facts from every dependency this unit can see.
	facts := newFactStore()
	for _, vetx := range cfg.PackageVetx {
		if err := facts.mergeFile(vetx); err != nil {
			fmt.Fprintln(stderr, "wowvet:", err)
			return 2
		}
	}

	exit := 0
	if !parseFailed {
		compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
			// path is a resolved package path, not a source import string.
			file, ok := cfg.PackageFile[path]
			if !ok {
				return nil, fmt.Errorf("no package file for %q", path)
			}
			return os.Open(file)
		})
		imp := &unitImporter{resolve: cfg.ImportMap, compiler: compilerImp}
		pkg, info, err := TypeCheck(fset, cfg.ImportPath, files, imp)
		if err != nil {
			if !cfg.SucceedOnTypecheckFailure {
				fmt.Fprintln(stderr, "wowvet:", err)
				return 2
			}
		} else {
			inModule := cfg.ModulePath != "" &&
				(cfg.ImportPath == cfg.ModulePath || strings.HasPrefix(cfg.ImportPath, cfg.ModulePath+"/"))
			var diags []Diagnostic
			for _, a := range analyzers {
				if a.Run == nil {
					// A whole-program analyzer: this unit sees its
					// dependencies but never its dependents.
					continue
				}
				pass := &Pass{
					Analyzer:  a,
					Fset:      fset,
					Files:     files,
					Pkg:       pkg,
					TypesInfo: info,
					InModule:  inModule,
					ModuleDir: findModuleRoot(cfg.Dir),
					facts:     facts,
					report:    func(d Diagnostic) { diags = append(diags, d) },
				}
				if err := a.Run(pass); err != nil {
					fmt.Fprintf(stderr, "wowvet: %s on %s: %v\n", a.Name, cfg.ImportPath, err)
					return 2
				}
			}
			diags = applySuppressions(fset, files, diags)
			sortDiagnostics(diags)
			if !cfg.VetxOnly {
				for _, d := range diags {
					fmt.Fprintf(stderr, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
					exit = 1
				}
			}
		}
	}

	if cfg.VetxOutput != "" {
		data, err := facts.encode()
		if err != nil {
			fmt.Fprintln(stderr, "wowvet:", err)
			return 2
		}
		if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
			fmt.Fprintln(stderr, "wowvet:", err)
			return 2
		}
	}
	return exit
}

// unitImporter resolves source import strings through the unit's ImportMap
// before loading export data, matching the go vet contract.
type unitImporter struct {
	resolve  map[string]string
	compiler types.Importer
}

func (u *unitImporter) Import(path string) (*types.Package, error) {
	if resolved, ok := u.resolve[path]; ok {
		path = resolved
	}
	return u.compiler.Import(path)
}

func readUnitConfig(filename string) (*UnitConfig, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	cfg := new(UnitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode vet config %s: %w", filename, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package has no files: %s", cfg.ImportPath)
	}
	return cfg, nil
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) string {
	for d := dir; d != "" && d != string(filepath.Separator); d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			break
		}
	}
	return ""
}

// Package deadapi reports surface that no program uses. Every func, method
// and type is code that refactors must keep compiling, that docs describe
// and that readers must rule out, so each must earn its place:
//
//   - (a) a package-level func, method or type that nothing outside its own
//     declaration references is dead and should be deleted. Unexported
//     ones count too, because deleting a dead export orphans its helpers.
//   - (b) an exported func or method that only its own package references
//     should be unexported. Package main is exempt.
//
// References come from non-test code only: a function kept alive by its
// tests alone is still dead (staticcheck's U1000 counts test uses, so it
// misses these). Packages of nested modules (bench/) are loaded for their
// references and get no findings.
//
// A method that satisfies an interface the program mentions is exempt,
// because a call through the interface names the interface's method, not
// the concrete one. The standard library's own interfaces count when the
// program mentions them (error, types.Importer), and so do fmt.Stringer and
// fmt.GoStringer, which fmt finds by a type assertion the program never
// spells. Deliberate API takes `//wowvet:ignore deadapi -- <reason>`.
//
// The question "does anything call this?" needs every dependent of a
// package, so deadapi is a whole-program analyzer: the whole-module driver
// runs it, and the `go vet` unit driver, whose unit sees its dependencies
// but never its dependents, skips it.
//
// Each package is type-checked against its dependencies' export data, so an
// object seen from an importer is not the object its own package declared.
// Objects are therefore matched by package path, receiver type name and
// name, and interface satisfaction by method names and signature strings.
package deadapi

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the deadapi pass.
var Analyzer = &analysis.Analyzer{
	Name:       "deadapi",
	Doc:        "every func, method and type is used outside its own declaration, and every export outside its package",
	RunProgram: run,
}

// A key names a package-level func, method or type across type-checks.
type key struct {
	pkg  string // package path
	recv string // receiver type name, for methods
	name string
}

// A decl is one declaration deadapi judges.
type decl struct {
	key   key
	kind  string // "func", "method" or "type"
	pos   token.Pos
	named *types.Named // the receiver's type, for methods
	main  bool         // declared in package main
}

func run(pass *analysis.ProgramPass) error {
	var decls []decl
	refs := make(map[key]map[string]bool) // referenced object -> referencing package paths
	ifaces := newInterfaceSet()
	for _, pkg := range pass.Prog.Packages {
		for _, f := range pkg.Files {
			if strings.HasSuffix(pass.Prog.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			if !pkg.Nested {
				decls = append(decls, declarations(pkg, f)...)
			}
			collectRefs(pkg, f, refs)
		}
		ifaces.collect(pkg.Info)
	}

	exempt := ifaces.satisfiedMethods(decls)
	for _, d := range decls {
		if exempt[d.key] {
			continue
		}
		name := d.key.name
		if d.key.recv != "" {
			name = d.key.recv + "." + name
		}
		users := refs[d.key]
		if len(users) == 0 {
			pass.Reportf(d.pos, "%s %s is never referenced outside its own declaration: delete it", d.kind, name)
			continue
		}
		if d.kind == "type" || d.main || !token.IsExported(d.key.name) || len(users) > 1 || !users[d.key.pkg] {
			continue
		}
		pass.Reportf(d.pos, "exported %s %s is referenced only inside its own package: unexport it", d.kind, name)
	}
	return nil
}

// declarations lists the file's package-level funcs, methods and types.
func declarations(pkg *analysis.LoadedPackage, f *ast.File) []decl {
	isMain := pkg.Pkg.Name() == "main"
	var out []decl
	add := func(id *ast.Ident, kind string) {
		k, ok := objKey(pkg.Info.Defs[id])
		if !ok || id.Name == "_" {
			return
		}
		d := decl{key: k, kind: kind, pos: id.Pos(), main: isMain}
		if fn, ok := pkg.Info.Defs[id].(*types.Func); ok && kind == "method" {
			d.named = namedRecv(fn.Type().(*types.Signature).Recv().Type())
		}
		out = append(out, d)
	}
	for _, dcl := range f.Decls {
		switch dcl := dcl.(type) {
		case *ast.FuncDecl:
			switch {
			case dcl.Recv != nil:
				add(dcl.Name, "method")
			case dcl.Name.Name == "init", isMain && dcl.Name.Name == "main":
			default:
				add(dcl.Name, "func")
			}
		case *ast.GenDecl:
			for _, spec := range dcl.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					add(ts.Name, "type")
				}
			}
		}
	}
	return out
}

// collectRefs records, for every package-level func, method and type the
// file uses, that pkg references it. A use inside the object's own
// declaration does not count, nor does a method's receiver naming its type.
func collectRefs(pkg *analysis.LoadedPackage, f *ast.File, refs map[key]map[string]bool) {
	walk := func(n ast.Node, self key) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			k, ok := objKey(pkg.Info.Uses[id])
			if !ok || k == self {
				return true
			}
			if refs[k] == nil {
				refs[k] = make(map[string]bool)
			}
			refs[k][pkg.Path] = true
			return true
		})
	}
	for _, dcl := range f.Decls {
		switch dcl := dcl.(type) {
		case *ast.FuncDecl:
			self, _ := objKey(pkg.Info.Defs[dcl.Name])
			walk(dcl.Type, self)
			walk(dcl.Body, self)
		case *ast.GenDecl:
			for _, spec := range dcl.Specs {
				var self key
				if ts, ok := spec.(*ast.TypeSpec); ok {
					self, _ = objKey(pkg.Info.Defs[ts.Name])
				}
				walk(spec, self)
			}
		}
	}
}

// objKey names a package-level func, concrete method or type; it reports
// false for anything else (locals, fields, interface methods, builtins).
func objKey(obj types.Object) (key, bool) {
	if obj == nil || obj.Pkg() == nil {
		return key{}, false
	}
	switch obj := obj.(type) {
	case *types.Func:
		obj = obj.Origin()
		recv := obj.Type().(*types.Signature).Recv()
		if recv == nil {
			return key{pkg: obj.Pkg().Path(), name: obj.Name()}, true
		}
		named := namedRecv(recv.Type())
		if named == nil || types.IsInterface(named) {
			return key{}, false
		}
		return key{pkg: obj.Pkg().Path(), recv: named.Obj().Name(), name: obj.Name()}, true
	case *types.TypeName:
		if obj.Parent() != obj.Pkg().Scope() {
			return key{}, false
		}
		return key{pkg: obj.Pkg().Path(), name: obj.Name()}, true
	}
	return key{}, false
}

// namedRecv returns the named type a receiver of type t belongs to.
func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// An interfaceSet holds every non-empty interface the program mentions,
// each as its method set keyed by Id (name, qualified when unexported) to a
// signature string that is stable across type-checks.
type interfaceSet struct {
	seen   map[string]bool
	ifaces []map[string]string
}

func newInterfaceSet() *interfaceSet {
	s := &interfaceSet{seen: make(map[string]bool)}
	// fmt finds these with a type assertion; error is in the universe.
	str := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)
	for _, name := range []string{"String", "GoString"} {
		m := types.NewFunc(token.NoPos, nil, name, str)
		s.add(types.NewInterfaceType([]*types.Func{m}, nil).Complete())
	}
	s.add(types.Universe.Lookup("error").Type())
	return s
}

// collect adds the interfaces among the types of the package's expressions
// and of the objects it declares and uses.
func (s *interfaceSet) collect(info *types.Info) {
	for _, tv := range info.Types {
		s.walk(tv.Type)
	}
	for _, obj := range info.Defs {
		if obj != nil {
			s.walk(obj.Type())
		}
	}
	for _, obj := range info.Uses {
		s.walk(obj.Type())
	}
}

// walk adds t if it is an interface and looks inside the types it is
// built from, stopping at named types so the walk stays shallow.
func (s *interfaceSet) walk(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if types.IsInterface(t) {
			s.add(t)
		}
	case *types.Interface:
		s.add(t)
	case *types.Pointer:
		s.walk(t.Elem())
	case *types.Slice:
		s.walk(t.Elem())
	case *types.Array:
		s.walk(t.Elem())
	case *types.Chan:
		s.walk(t.Elem())
	case *types.Map:
		s.walk(t.Key())
		s.walk(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				s.walk(tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			s.walk(t.Field(i).Type())
		}
	}
}

func (s *interfaceSet) add(t types.Type) {
	iface, _ := t.Underlying().(*types.Interface)
	if iface == nil || iface.NumMethods() == 0 || s.seen[types.TypeString(t, nil)] {
		return
	}
	s.seen[types.TypeString(t, nil)] = true
	s.ifaces = append(s.ifaces, methodSigs(types.NewMethodSet(t)))
}

// satisfiedMethods returns the methods that serve as the implementation of
// an interface in the set: for every declared type whose pointer method set
// satisfies an interface, the methods that interface names.
func (s *interfaceSet) satisfiedMethods(decls []decl) map[key]bool {
	exempt := make(map[key]bool)
	done := make(map[*types.Named]bool)
	for _, d := range decls {
		if d.named == nil || done[d.named] {
			continue
		}
		done[d.named] = true
		mset := types.NewMethodSet(types.NewPointer(d.named))
		have := methodSigs(mset)
		for _, iface := range s.ifaces {
			if !satisfies(have, iface) {
				continue
			}
			for i := 0; i < mset.Len(); i++ {
				m := mset.At(i).Obj()
				if _, named := iface[m.Id()]; named {
					if k, ok := objKey(m); ok {
						exempt[k] = true
					}
				}
			}
		}
	}
	return exempt
}

func satisfies(have, iface map[string]string) bool {
	for id, sig := range iface {
		if have[id] != sig {
			return false
		}
	}
	return true
}

func methodSigs(mset *types.MethodSet) map[string]string {
	out := make(map[string]string, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		out[m.Id()] = sigString(m.Type().(*types.Signature))
	}
	return out
}

// sigString spells a signature's parameter and result types with full
// package paths and without names or receiver, so the same signature
// prints the same from every type-check.
func sigString(sig *types.Signature) string {
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(tup.At(i).Type(), nil))
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

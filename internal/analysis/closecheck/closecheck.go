// Package closecheck verifies the engine's resource lifecycles: every
// acquired snapshot, cursor and transaction must be settled — Released,
// Closed, committed or rolled back — before the acquiring function lets go
// of it. The worst historical bugs in this tree were leaks the compiler
// cannot see (an abandoned MVCC snapshot pins the version-GC horizon
// forever, so dead row versions are never reclaimed), so the rule is
// machine-checked.
//
// The analysis is intra-procedural and deliberately coarse in the caller's
// favor: an acquired resource is settled if any reachable expression in the
// same function calls one of its settling methods (directly, in a defer, or
// inside a nested function literal), and ownership is considered transferred
// when the value escapes — returned, passed to a call, stored in a field,
// map, slice or channel. What it flags is the case with no excuse: a
// resource acquired, used locally, and never settled on any path, reported
// at the acquisition site.
package closecheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the closecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "closecheck",
	Doc:  "acquired snapshots, cursors, connections and transactions must be settled (Released/Closed/Commit/Rollback) on all paths",
	Run:  run,
}

// resourceSpec describes one tracked resource type and the methods that
// settle its obligation.
type resourceSpec struct {
	pkgSuffix string
	typeName  string
	settlers  []string
	verb      string
}

// resources is the contract: acquiring any of these by calling a function
// that returns one creates an obligation in the acquiring function.
var resources = []resourceSpec{
	{"internal/txn", "Snapshot", []string{"Release"}, "Released"},
	{"internal/txn", "Txn", []string{"Commit", "Rollback"}, "committed or rolled back"},
	{"internal/engine", "Rows", []string{"Close"}, "Closed"},
	{"internal/server/client", "Rows", []string{"Close"}, "Closed"},
	{"internal/server/client", "Conn", []string{"Close"}, "Closed"},
	{"internal/server/client", "PooledConn", []string{"Release"}, "Released"},
}

// specFor returns the resource spec t satisfies (through one pointer), or nil.
func specFor(t types.Type) *resourceSpec {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	for i := range resources {
		spec := &resources[i]
		if named.Obj().Name() == spec.typeName && analysis.PathHasSuffix(named.Obj().Pkg().Path(), spec.pkgSuffix) {
			return spec
		}
	}
	return nil
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func isTestFile(pass *analysis.Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
}

// obligation is one acquired resource bound to a local variable.
type obligation struct {
	obj  types.Object
	spec *resourceSpec
	name string
	pos  ast.Node
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	var obligations []obligation

	// Pass 1: find acquisitions — call results of tracked types bound by an
	// assignment, or discarded outright.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			for i, compType := range callResultTypes(pass, call) {
				spec := specFor(compType)
				if spec == nil || i >= len(n.Lhs) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						pass.Reportf(lhs.Pos(), "result %d of %s (*%s) is discarded; the %s must be %s",
							i+1, callName(call), spec.typeName, strings.ToLower(spec.typeName), spec.verb)
						continue
					}
					obj := pass.TypesInfo.Defs[lhs]
					if obj == nil {
						obj = pass.TypesInfo.Uses[lhs]
					}
					if obj != nil {
						obligations = append(obligations, obligation{obj: obj, spec: spec, name: lhs.Name, pos: lhs})
					}
					// Assigning into a field, map or slice element transfers
					// ownership: nothing to track.
				}
			}
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			for i, compType := range callResultTypes(pass, call) {
				if spec := specFor(compType); spec != nil {
					pass.Reportf(call.Pos(), "result %d of %s (*%s) is discarded; the %s must be %s",
						i+1, callName(call), spec.typeName, strings.ToLower(spec.typeName), spec.verb)
				}
			}
		}
		return true
	})

	if len(obligations) == 0 {
		return
	}

	// Pass 2: classify every use of each obligated variable anywhere in the
	// function (defers and nested literals included).
	type state struct{ settled, escaped bool }
	states := make(map[types.Object]*state, len(obligations))
	for _, ob := range obligations {
		states[ob.obj] = &state{}
	}
	withParents(fn.Body, func(n ast.Node, parents []ast.Node) {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Uses[ident]
		if obj == nil {
			return
		}
		st, tracked := states[obj]
		if !tracked {
			return
		}
		var ob *obligation
		for i := range obligations {
			if obligations[i].obj == obj {
				ob = &obligations[i]
				break
			}
		}
		switch use := parents[len(parents)-1].(type) {
		case *ast.SelectorExpr:
			if use.X != ident {
				return // the variable is a field name, not the receiver
			}
			if len(parents) >= 2 {
				if call, ok := parents[len(parents)-2].(*ast.CallExpr); ok && call.Fun == use {
					for _, m := range ob.spec.settlers {
						if use.Sel.Name == m {
							st.settled = true
							return
						}
					}
					return // some other method: a normal use
				}
			}
			// x.field read or method value: neutral.
		case *ast.AssignStmt:
			for _, lhs := range use.Lhs {
				if lhs == ident {
					return // rebinding the name, not a use of the value
				}
			}
			st.escaped = true // stored somewhere else
		case *ast.BinaryExpr, *ast.IfStmt, *ast.SwitchStmt:
			// comparisons (x != nil): neutral
		case *ast.CallExpr, *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr,
			*ast.UnaryExpr, *ast.SendStmt, *ast.IndexExpr, *ast.ValueSpec:
			st.escaped = true
		default:
			// Anything unclassified counts as an escape so the analyzer errs
			// toward silence, never toward a false leak report.
			st.escaped = true
		}
	})

	for _, ob := range obligations {
		st := states[ob.obj]
		if !st.settled && !st.escaped {
			pass.Reportf(ob.pos.Pos(), "%s (*%s) is acquired but never %s; settle it on every path, e.g. `defer %s.%s()`",
				ob.name, ob.spec.typeName, ob.spec.verb, ob.name, ob.spec.settlers[0])
		}
	}
}

// callResultTypes returns the component types a call produces (one per
// result), or nil for conversions and type expressions.
func callResultTypes(pass *analysis.Pass, call *ast.CallExpr) []types.Type {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.IsType() {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := 0; i < t.Len(); i++ {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		return []types.Type{t}
	}
}

// callName renders the call target for diagnostics ("stmt.Query").
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}

// withParents walks the tree depth-first, passing each node its parent chain.
func withParents(root ast.Node, visit func(n ast.Node, parents []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			visit(n, stack)
		}
		stack = append(stack, n)
		return true
	})
}

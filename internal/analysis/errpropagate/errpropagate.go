// Package errpropagate forbids silently discarded errors in the packages
// where an ignored error corrupts data rather than inconveniencing a user:
// the executor (internal/exec), the transaction manager and WAL
// (internal/txn), the storage layer (internal/storage) and the wire codec
// (internal/server/wire). In those packages an error is part of the
// protocol — a failed Unpin leaks a buffer frame, a failed WAL append
// breaks recovery, a failed operator Close loses a spill-file error — so
// every one must be returned, joined, logged, or suppressed with a written
// justification.
//
// Three shapes are flagged: an error result assigned to the blank
// identifier (`n, _ := w.Write(p)`), a call statement whose error result is
// ignored outright (`h.pool.Unpin(id, false)`), and a defer or go statement
// discarding the call's error (`defer op.Close()` — wrap it in a closure
// that folds the error into the function's return value instead).
package errpropagate

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the errpropagate pass.
var Analyzer = &analysis.Analyzer{
	Name: "errpropagate",
	Doc:  "errors in the executor, txn, storage and wire-codec packages must be propagated, never discarded",
	Run:  run,
}

// targetPkgs are the package path suffixes where the rule applies.
var targetPkgs = []string{
	"internal/exec",
	"internal/txn",
	"internal/storage",
	"internal/server/wire",
}

func run(pass *analysis.Pass) error {
	target := false
	for _, suffix := range targetPkgs {
		if analysis.PathHasSuffix(pass.Pkg.Path(), suffix) {
			target = true
			break
		}
	}
	if !target {
		return nil
	}

	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if i := errorResult(pass, call); i >= 0 {
						pass.Reportf(call.Pos(), "error result of %s is ignored; propagate it (return, errors.Join, or log with justification)",
							callName(call))
					}
				}
			case *ast.DeferStmt:
				if i := errorResult(pass, n.Call); i >= 0 {
					pass.Reportf(n.Call.Pos(), "`defer %s` discards its error; use `defer func() { ... }()` and fold the error into the surrounding function's return value",
						callName(n.Call))
				}
			case *ast.GoStmt:
				if i := errorResult(pass, n.Call); i >= 0 {
					pass.Reportf(n.Call.Pos(), "`go %s` discards its error; run it in a closure that handles the error",
						callName(n.Call))
				}
			}
			return true
		})
	}
	return nil
}

// checkAssign flags blank identifiers bound to error-typed results.
func checkAssign(pass *analysis.Pass, n *ast.AssignStmt) {
	// a, b := f() — one call, tuple results.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		call, ok := n.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		tv, ok := pass.TypesInfo.Types[call]
		if !ok {
			return
		}
		tuple, ok := tv.Type.(*types.Tuple)
		if !ok {
			return
		}
		for i := 0; i < tuple.Len() && i < len(n.Lhs); i++ {
			if isBlank(n.Lhs[i]) && isErrorType(tuple.At(i).Type()) {
				pass.Reportf(n.Lhs[i].Pos(), "error result of %s is discarded into _; propagate it",
					callName(call))
			}
		}
		return
	}
	// _ = f() pairs.
	for i := range n.Lhs {
		if i >= len(n.Rhs) || !isBlank(n.Lhs[i]) {
			continue
		}
		call, ok := n.Rhs[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		tv, ok := pass.TypesInfo.Types[call]
		if !ok {
			continue
		}
		if isErrorType(tv.Type) {
			pass.Reportf(n.Lhs[i].Pos(), "error result of %s is discarded into _; propagate it",
				callName(call))
		}
	}
}

// errorResult returns the index of the first error-typed result of the
// call, or -1. Conversions and calls without error results are skipped.
func errorResult(pass *analysis.Pass, call *ast.CallExpr) int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.IsType() {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
	default:
		if isErrorType(t) {
			return 0
		}
	}
	return -1
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// callName renders the call target for diagnostics.
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
		return "the call"
	}
}

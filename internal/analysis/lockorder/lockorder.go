// Package lockorder builds a static lock-acquisition-order graph over the
// module's mutexes and the transaction manager's row claims, and rejects any
// edge that closes a cycle. Two goroutines acquiring the same pair of
// mutexes in opposite orders is the one deadlock the runtime cannot detect —
// the waits-for graph only sees transactions waiting on transactions, not
// sync.Mutex — so the order is enforced at vet time instead.
//
// Lock classes are struct-field mutexes (`pkg.Type.field`), package-level
// mutex variables (`pkg.var`), and one synthetic class per txn package —
// `pkg.#rows` — representing the row versions and unique keys transactions
// hold through the stamps in version headers: a writer claims them in
// Txn.Insert/Update/Delete (claimVersion, insertVersion) and waits on their
// holder in Txn.waitFor and LockManager.wait; Commit, Rollback and finish
// release them all. The row class may be acquired while already held
// (cycles inside the row space are detected at run time by the waits-for
// graph, which aborts the cycle-closing transaction); every other class
// reports re-acquisition as a self-deadlock. What vet must still catch is a
// mutex taken on one side of a row wait in one function and on the other
// side elsewhere: the runtime detector is blind to that mixed cycle.
//
// The walk is flow-aware within a function (branches fork the held set,
// deferred unlocks keep the lock held to function end, goroutine bodies
// start with nothing held) and summary-based across functions: each
// function's transitive may-acquire set flows to its callers, within a
// package by fixpoint and across packages in dependency order. Every module
// package feeds one acquisition graph, so a cycle whose edges live in
// sibling packages is found, and each edge on it is reported at its own
// acquire site.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name:       "lockorder",
	Doc:        "mutexes and row claims must be acquired in one global order; cycle-creating acquisitions are rejected",
	RunProgram: run,
}

// rowClassSuffix names the synthetic lock class for the txn package's row
// claims; the full class is the txn package path + this suffix.
const rowClassSuffix = "#rows"

// rowOps maps txn-package receiver type -> method -> op for the synthetic
// row class.
var rowOps = map[string]map[string]lockOp{
	"LockManager": {"wait": opAcquire},
	"Txn": {
		"Insert": opAcquire, "Update": opAcquire, "Delete": opAcquire,
		"claimVersion": opAcquire, "insertVersion": opAcquire, "waitFor": opAcquire,
		"Commit": opRelease, "Rollback": opRelease, "finish": opRelease,
	},
}

type lockOp int

const (
	opNone lockOp = iota
	opAcquire
	opRelease
)

// edge is one observed acquisition: from was held when to was acquired at
// pos.
type edge struct {
	from, to string
	pos      token.Pos
}

func run(pass *analysis.ProgramPass) error {
	// Packages come in dependency order, so every callee outside the package
	// being walked already has its summary.
	summaries := make(map[string]classSet)
	var edges []edge
	for _, pkg := range pass.Prog.Packages {
		if pkg.Nested {
			continue
		}
		w := &walker{fset: pass.Prog.Fset, files: pkg.Files, info: pkg.Info, summaries: summaries}
		w.computeSummaries()
		w.walkPackage()
		edges = append(edges, w.edges...)
	}

	adj := make(map[string][]string)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}

	// Report each edge that lies on a cycle, at its acquire site.
	reported := make(map[edge]bool)
	for _, e := range edges {
		if reported[e] {
			continue
		}
		reported[e] = true
		if e.from == e.to {
			if !strings.HasSuffix(e.from, rowClassSuffix) {
				pass.Reportf(e.pos, "%s is acquired while already held: self-deadlock", e.from)
			}
			continue
		}
		if path := findPath(adj, e.to, e.from); path != nil {
			cycle := append([]string{e.from}, path...)
			pass.Reportf(e.pos, "acquiring %s while holding %s creates a lock-order cycle: %s",
				e.to, e.from, strings.Join(cycle, " -> "))
		}
	}
	return nil
}

// findPath returns the node path from -> ... -> to (inclusive) if one
// exists, by BFS over adj.
func findPath(adj map[string][]string, from, to string) []string {
	if from == to {
		return []string{from}
	}
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, next := range adj[n] {
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = n
			if next == to {
				var path []string
				for at := to; at != ""; at = prev[at] {
					path = append([]string{at}, path...)
				}
				return path
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// classSet is a small string set.
type classSet map[string]bool

func (s classSet) add(c string) bool {
	if s[c] {
		return false
	}
	s[c] = true
	return true
}

func (s classSet) slice() []string {
	out := make([]string, 0, len(s))
	for c := range s {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// walker carries one package's analysis state.
type walker struct {
	fset      *token.FileSet
	files     []*ast.File
	info      *types.Info
	summaries map[string]classSet // every function summarized so far, by FullName
	edges     []edge
}

// heldLock is one entry of the ordered held set.
type heldLock struct{ class string }

// --- summaries ---------------------------------------------------------------

// computeSummaries fixpoints each function's transitive may-acquire set.
func (w *walker) computeSummaries() {
	type funcInfo struct {
		direct  classSet
		callees []string
	}
	infos := make(map[string]*funcInfo)
	for _, file := range w.files {
		if w.isTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			key := w.funcKey(fn)
			if key == "" {
				continue
			}
			info := &funcInfo{direct: make(classSet)}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // closures may run later, under different locks
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if class, op := w.classifyLockCall(call); class != "" && op == opAcquire {
					info.direct.add(class)
				}
				if callee := w.calleeKey(call); callee != "" {
					info.callees = append(info.callees, callee)
				}
				return true
			})
			infos[key] = info
		}
	}

	for key, info := range infos {
		s := make(classSet)
		for c := range info.direct {
			s.add(c)
		}
		w.summaries[key] = s
	}
	for changed := true; changed; {
		changed = false
		for key, info := range infos {
			s := w.summaries[key]
			for _, callee := range info.callees {
				for _, c := range w.acquiresOf(callee) {
					if s.add(c) {
						changed = true
					}
				}
			}
		}
	}
}

// acquiresOf returns the transitive acquire set of the named function.
func (w *walker) acquiresOf(funcKey string) []string {
	return w.summaries[funcKey].slice()
}

// --- edge walk ---------------------------------------------------------------

func (w *walker) walkPackage() {
	for _, file := range w.files {
		if w.isTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w.stmts(fn.Body.List, nil)
		}
	}
}

func (w *walker) isTestFile(file *ast.File) bool {
	return strings.HasSuffix(w.fset.Position(file.Pos()).Filename, "_test.go")
}

// stmts folds the held set through a statement list.
func (w *walker) stmts(list []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

// branch walks a conditional region with its own copy of the held set; its
// lock-state changes do not flow past the branch.
func (w *walker) branch(s ast.Stmt, held []heldLock) {
	if s == nil {
		return
	}
	w.stmt(s, append([]heldLock(nil), held...))
}

func (w *walker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case nil:
		return held
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.ExprStmt:
		return w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = w.expr(e, held)
		}
		for _, e := range s.Lhs {
			held = w.expr(e, held)
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						held = w.expr(e, held)
					}
				}
			}
		}
		return held
	case *ast.DeferStmt:
		// A deferred release keeps the lock held until function end — leave
		// the held set alone. Any other deferred call still contributes
		// edges from the current held set.
		if class, op := w.classifyLockCall(s.Call); class != "" && op == opRelease {
			return held
		}
		w.call(s.Call, held, false)
		return held
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			held = w.expr(arg, held)
		}
		// The spawned goroutine holds nothing; its own acquisitions still
		// produce edges (walked with an empty held set, either here for a
		// literal or in its own declaration for a named function).
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, nil)
		}
		return held
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = w.expr(e, held)
		}
		return held
	case *ast.IfStmt:
		held = w.stmt(s.Init, held)
		held = w.expr(s.Cond, held)
		w.branch(s.Body, held)
		w.branch(s.Else, held)
		return held
	case *ast.ForStmt:
		held = w.stmt(s.Init, held)
		if s.Cond != nil {
			held = w.expr(s.Cond, held)
		}
		w.branch(s.Body, held)
		if s.Post != nil {
			w.branch(s.Post, held)
		}
		return held
	case *ast.RangeStmt:
		held = w.expr(s.X, held)
		w.branch(s.Body, held)
		return held
	case *ast.SwitchStmt:
		held = w.stmt(s.Init, held)
		if s.Tag != nil {
			held = w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				snapshot := append([]heldLock(nil), held...)
				for _, e := range cc.List {
					snapshot = w.expr(e, snapshot)
				}
				w.stmts(cc.Body, snapshot)
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		held = w.stmt(s.Init, held)
		held = w.stmt(s.Assign, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, append([]heldLock(nil), held...))
			}
		}
		return held
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				snapshot := append([]heldLock(nil), held...)
				snapshot = w.stmt(cc.Comm, snapshot)
				w.stmts(cc.Body, snapshot)
			}
		}
		return held
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.SendStmt:
		held = w.expr(s.Chan, held)
		return w.expr(s.Value, held)
	case *ast.IncDecStmt:
		return w.expr(s.X, held)
	default:
		return held
	}
}

// expr walks an expression left-to-right, processing calls as it meets them.
func (w *walker) expr(e ast.Expr, held []heldLock) []heldLock {
	switch e := e.(type) {
	case nil:
		return held
	case *ast.CallExpr:
		for _, arg := range e.Args {
			held = w.expr(arg, held)
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			held = w.expr(sel.X, held)
		}
		if lit, ok := e.Fun.(*ast.FuncLit); ok {
			// Immediately-invoked literal: runs right here, under the
			// current held set.
			w.stmts(lit.Body.List, append([]heldLock(nil), held...))
			return held
		}
		return w.call(e, held, true)
	case *ast.FuncLit:
		// A closure bound to a variable or argument runs later, with an
		// unknown held set; analyze it in isolation.
		w.stmts(e.Body.List, nil)
		return held
	case *ast.ParenExpr:
		return w.expr(e.X, held)
	case *ast.UnaryExpr:
		return w.expr(e.X, held)
	case *ast.BinaryExpr:
		held = w.expr(e.X, held)
		return w.expr(e.Y, held)
	case *ast.IndexExpr:
		held = w.expr(e.X, held)
		return w.expr(e.Index, held)
	case *ast.SliceExpr:
		held = w.expr(e.X, held)
		held = w.expr(e.Low, held)
		held = w.expr(e.High, held)
		return w.expr(e.Max, held)
	case *ast.SelectorExpr:
		return w.expr(e.X, held)
	case *ast.StarExpr:
		return w.expr(e.X, held)
	case *ast.TypeAssertExpr:
		return w.expr(e.X, held)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			held = w.expr(elt, held)
		}
		return held
	case *ast.KeyValueExpr:
		held = w.expr(e.Key, held)
		return w.expr(e.Value, held)
	default:
		return held
	}
}

// call applies one classified call to the held set: direct lock operations
// mutate it, module calls contribute summary edges.
func (w *walker) call(call *ast.CallExpr, held []heldLock, mutate bool) []heldLock {
	if class, op := w.classifyLockCall(call); class != "" {
		switch op {
		case opAcquire:
			for _, h := range held {
				if h.class == class && strings.HasSuffix(class, rowClassSuffix) {
					continue // row-on-row waits are the waits-for graph's job
				}
				w.edges = append(w.edges, edge{from: h.class, to: class, pos: call.Pos()})
			}
			if mutate {
				held = append(held, heldLock{class: class})
			}
		case opRelease:
			if mutate {
				held = removeLast(held, class)
			}
		}
		return held
	}
	if callee := w.calleeKey(call); callee != "" {
		for _, c := range w.acquiresOf(callee) {
			for _, h := range held {
				if h.class == c && strings.HasSuffix(c, rowClassSuffix) {
					continue
				}
				w.edges = append(w.edges, edge{from: h.class, to: c, pos: call.Pos()})
			}
		}
	}
	return held
}

// removeLast drops the most recent occurrence of class from held. Releasing
// the synthetic row class drops every occurrence: Commit, Rollback and finish
// end a transaction, which frees all of its claims at once.
func removeLast(held []heldLock, class string) []heldLock {
	if strings.HasSuffix(class, rowClassSuffix) {
		out := held[:0]
		for _, h := range held {
			if h.class != class {
				out = append(out, h)
			}
		}
		return out
	}
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].class == class {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// --- call classification -----------------------------------------------------

// classifyLockCall recognizes direct sync.Mutex/RWMutex operations on
// nameable lock classes and the txn package's row-claim API.
func (w *walker) classifyLockCall(call *ast.CallExpr) (string, lockOp) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	fn, ok := w.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", opNone
	}
	recv := receiverNamed(fn)
	if recv == nil {
		return "", opNone
	}

	if fn.Pkg().Path() == "sync" {
		var op lockOp
		switch recv.Obj().Name() {
		case "Mutex", "RWMutex":
			switch fn.Name() {
			case "Lock", "RLock", "TryLock", "TryRLock":
				op = opAcquire
			case "Unlock", "RUnlock":
				op = opRelease
			default:
				return "", opNone
			}
		default:
			return "", opNone
		}
		return w.mutexClass(sel.X), op
	}

	if analysis.PathHasSuffix(fn.Pkg().Path(), "internal/txn") {
		if ops, ok := rowOps[recv.Obj().Name()]; ok {
			if op, ok := ops[fn.Name()]; ok {
				return fn.Pkg().Path() + "." + rowClassSuffix, op
			}
		}
	}
	return "", opNone
}

// receiverNamed returns the named type of fn's receiver, through a pointer.
func receiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// mutexClass names the lock class of a mutex expression: a struct field
// (`pkg.Type.field`) or a package-level variable (`pkg.var`). Locals and
// anything else return "" and are not tracked.
func (w *walker) mutexClass(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		selInfo, ok := w.info.Selections[x]
		if !ok {
			// Qualified package-level var: pkg.Mu
			if obj, ok := w.info.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil && !obj.IsField() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return ""
		}
		field, ok := selInfo.Obj().(*types.Var)
		if !ok || !field.IsField() {
			return ""
		}
		owner := selInfo.Recv()
		if ptr, ok := owner.(*types.Pointer); ok {
			owner = ptr.Elem()
		}
		named, ok := owner.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
	case *ast.Ident:
		obj, ok := w.info.Uses[x].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return ""
		}
		// Package-level variable only; a local mutex cannot participate in a
		// cross-function ordering cycle under a stable name.
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return ""
	case *ast.ParenExpr:
		return w.mutexClass(x.X)
	}
	return ""
}

// calleeKey resolves a call to a module function's FullName, or "" for
// anything the summaries cannot name (interface methods, stdlib, builtins).
func (w *walker) calleeKey(call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	fn, ok := w.info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	return fn.FullName()
}

// funcKey is the FullName of a declared function.
func (w *walker) funcKey(fn *ast.FuncDecl) string {
	obj, ok := w.info.Defs[fn.Name].(*types.Func)
	if !ok {
		return ""
	}
	return obj.FullName()
}

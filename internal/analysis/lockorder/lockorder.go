// Package lockorder builds a static lock-acquisition-order graph over the
// module's mutexes and the transaction manager's logical row locks, and
// rejects any edge that closes a cycle. Two goroutines acquiring the same
// pair of mutexes in opposite orders is the one deadlock the runtime cannot
// detect — the waits-for graph only sees the lock manager's own locks, not
// sync.Mutex — so the order is enforced at vet time instead.
//
// Lock classes are struct-field mutexes (`pkg.Type.field`), package-level
// mutex variables (`pkg.var`), and one synthetic class per txn package —
// `pkg.#rows` — representing the MVCC row- and key-lock space behind
// LockManager.lockRow/lockKey and Txn.Insert/Update/Delete. The row class
// may be acquired while already held (cycles inside the row-lock space are
// detected at run time by the lock manager's waits-for graph, which aborts
// the cycle-closing transaction); every other class reports re-acquisition
// as a self-deadlock. What vet must still catch is a mutex taken on one
// side of a row lock in one function and on the other side elsewhere: the
// runtime detector is blind to that mixed cycle.
//
// The walk is flow-aware within a function (branches fork the held set,
// deferred unlocks keep the lock held to function end, goroutine bodies
// start with nothing held) and summary-based across functions: each
// function's transitive may-acquire set flows to its callers, within the
// package by fixpoint and across packages as an exported package fact, so
// the full graph exists in both the standalone and the `go vet` unit driver.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "mutexes and row locks must be acquired in one global order; cycle-creating acquisitions are rejected",
	Run:  run,
}

// rowClassSuffix names the synthetic lock class for the txn package's
// logical row and key locks; the full class is the txn package path + this
// suffix.
const rowClassSuffix = "#rows"

// rowOps maps txn-package receiver type -> method -> op for the synthetic
// row-lock class.
var rowOps = map[string]map[string]lockOp{
	"LockManager": {
		"lockRow": opAcquire, "lockKey": opAcquire, "lock": opAcquire,
		"releaseAll": opRelease,
	},
	"Txn": {
		"Insert": opAcquire, "Update": opAcquire, "Delete": opAcquire,
		"lockUniqueKeys": opAcquire, "claimVersion": opAcquire,
		"Commit": opRelease, "Rollback": opRelease, "finish": opRelease,
	},
}

type lockOp int

const (
	opNone lockOp = iota
	opAcquire
	opRelease
)

// lockFact is the package fact: the cumulative acquisition graph and
// function summaries for this package and everything it imports.
type lockFact struct {
	// Funcs maps a function's FullName to the classes it may acquire,
	// transitively.
	Funcs map[string][]string
	// Edges lists every known ordered pair: From was held when To was
	// acquired.
	Edges []factEdge
}

type factEdge struct{ From, To string }

// ownEdge is an edge observed in the package under analysis, with the
// acquisition site for reporting.
type ownEdge struct {
	from, to string
	pos      token.Pos
}

func run(pass *analysis.Pass) error {
	if !pass.InModule {
		return nil
	}

	// Merge the graphs exported by every direct import.
	merged := lockFact{Funcs: make(map[string][]string)}
	edgeSet := make(map[factEdge]bool)
	for _, imp := range pass.Pkg.Imports() {
		var f lockFact
		if !pass.ImportPackageFact(imp.Path(), &f) {
			continue
		}
		for name, classes := range f.Funcs {
			merged.Funcs[name] = classes
		}
		for _, e := range f.Edges {
			edgeSet[e] = true
		}
	}

	w := &walker{pass: pass, depFuncs: merged.Funcs}
	w.computeSummaries()
	w.walkPackage()

	// The global graph: dependency edges plus this package's own.
	adj := make(map[string][]string)
	addEdge := func(e factEdge) {
		if !edgeSet[e] {
			edgeSet[e] = true
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	for e := range edgeSet {
		adj[e.From] = append(adj[e.From], e.To)
	}
	for _, e := range w.edges {
		addEdge(factEdge{From: e.from, To: e.to})
	}

	// Report each own edge that participates in a cycle, at its acquire site.
	reported := make(map[string]bool)
	for _, e := range w.edges {
		key := fmt.Sprintf("%s->%s@%d", e.from, e.to, e.pos)
		if reported[key] {
			continue
		}
		if e.from == e.to {
			if !strings.HasSuffix(e.from, rowClassSuffix) {
				reported[key] = true
				pass.Reportf(e.pos, "%s is acquired while already held: self-deadlock", e.from)
			}
			continue
		}
		if path := findPath(adj, e.to, e.from); path != nil {
			reported[key] = true
			cycle := append([]string{e.from}, path...)
			pass.Reportf(e.pos, "acquiring %s while holding %s creates a lock-order cycle: %s",
				e.to, e.from, strings.Join(cycle, " -> "))
		}
	}

	// Export the cumulative graph for importers.
	out := lockFact{Funcs: merged.Funcs}
	for name, classes := range w.summaries {
		sorted := append([]string(nil), classes.slice()...)
		out.Funcs[name] = sorted
	}
	for e := range edgeSet {
		out.Edges = append(out.Edges, e)
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		if out.Edges[i].From != out.Edges[j].From {
			return out.Edges[i].From < out.Edges[j].From
		}
		return out.Edges[i].To < out.Edges[j].To
	})
	return pass.ExportPackageFact(out)
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

// walker carries the per-package analysis state.
type walker struct {
	pass      *analysis.Pass
	depFuncs  map[string][]string // imported function summaries (transitive)
	summaries map[string]classSet // this package's function summaries
	edges     []ownEdge
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
	for _, file := range w.pass.Files {
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

	w.summaries = make(map[string]classSet, len(infos))
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

// acquiresOf returns the transitive acquire set of the named function, from
// this package's summaries or the imported facts.
func (w *walker) acquiresOf(funcKey string) []string {
	if s, ok := w.summaries[funcKey]; ok {
		return s.slice()
	}
	return w.depFuncs[funcKey]
}

// --- edge walk ---------------------------------------------------------------

func (w *walker) walkPackage() {
	for _, file := range w.pass.Files {
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
	return strings.HasSuffix(w.pass.Fset.Position(file.Pos()).Filename, "_test.go")
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
				w.edges = append(w.edges, ownEdge{from: h.class, to: class, pos: call.Pos()})
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
				w.edges = append(w.edges, ownEdge{from: h.class, to: c, pos: call.Pos()})
			}
		}
	}
	return held
}

// removeLast drops the most recent occurrence of class from held. Releasing
// the synthetic row class drops every occurrence: ReleaseAll, Commit and
// Rollback free all of a transaction's row locks at once.
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
// nameable lock classes and the txn package's row-lock API.
func (w *walker) classifyLockCall(call *ast.CallExpr) (string, lockOp) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	fn, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
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
		selInfo, ok := w.pass.TypesInfo.Selections[x]
		if !ok {
			// Qualified package-level var: pkg.Mu
			if obj, ok := w.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil && !obj.IsField() {
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
		obj, ok := w.pass.TypesInfo.Uses[x].(*types.Var)
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
	fn, ok := w.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	return fn.FullName()
}

// funcKey is the FullName of a declared function.
func (w *walker) funcKey(fn *ast.FuncDecl) string {
	obj, ok := w.pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return ""
	}
	return obj.FullName()
}

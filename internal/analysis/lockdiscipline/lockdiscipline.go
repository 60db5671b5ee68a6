// Package lockdiscipline implements the cache-locking analyzer. The cache's
// eviction policies are deliberately not thread-safe (see the
// EvictionPolicy contract in internal/cache/policy.go): every
// Admit/Touch/Victim/Remove call must happen inside the owning cache's
// mutex span. Likewise, struct fields annotated
//
//	//tictac:guardedby <mutexField>
//
// may only be touched while <mutexField> on the same base value is held,
// and functions annotated //tictac:locked (meaning "caller must hold the
// lock") may only be called from a context that holds one.
//
// The analysis is a conservative lexical walk, not a full happens-before
// model: a lock counts as held from the statement after X.Lock() (or
// X.RLock()) to the matching X.Unlock() in the same statement list, and
// `defer X.Unlock()` holds it for the rest of the function. Function
// literals start with no locks held — a closure can outlive the span it
// was created in — so closures must lock for themselves or be annotated
// away.
package lockdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"tictac/internal/analysis/directive"
	"tictac/internal/analysis/framework"
)

// Analyzer is the lockdiscipline analyzer.
var Analyzer = &framework.Analyzer{
	Name: "lockdiscipline",
	Doc: `checks EvictionPolicy calls and //tictac:guardedby fields run under their mutex

Eviction-policy interface methods (Admit/Touch/Victim/Remove) must be
called with a lock on the same base value held. Fields annotated
"//tictac:guardedby <field>" must only be accessed while <field> is
held. Functions annotated //tictac:locked assert their caller holds the
lock: their bodies are trusted, and calls to them require a held lock.`,
	Run: run,
}

// policyMethods is the EvictionPolicy method set; a call counts as a
// policy call when the receiver's static type is an interface declaring
// all four.
var policyMethods = map[string]bool{"Admit": true, "Touch": true, "Victim": true, "Remove": true}

func run(pass *framework.Pass) error {
	c := &checker{
		pass:          pass,
		guardedFields: map[types.Object]string{},
		lockedFuncs:   map[types.Object]bool{},
	}
	for _, file := range pass.Files {
		c.collect(file)
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{checker: c}
			if _, ok := directive.Find(fd.Doc, directive.Locked); ok {
				w.lockedCtx = true
			}
			w.stmts(fd.Body.List, map[string]bool{})
		}
	}
	return nil
}

type checker struct {
	pass *framework.Pass
	// guardedFields maps a struct field object to the name of the sibling
	// mutex field guarding it, from //tictac:guardedby.
	guardedFields map[types.Object]string
	// lockedFuncs holds same-package functions declared //tictac:locked.
	lockedFuncs map[types.Object]bool
}

// collect indexes the package's guardedby field annotations and locked
// function declarations (including in test files, so helpers declared
// there keep their contracts).
func (c *checker) collect(file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if _, ok := directive.Find(d.Doc, directive.Locked); ok {
				if obj := c.pass.TypesInfo.Defs[d.Name]; obj != nil {
					c.lockedFuncs[obj] = true
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					dir, ok := directive.Find(field.Doc, directive.GuardedBy)
					if !ok {
						dir, ok = directive.Find(field.Comment, directive.GuardedBy)
					}
					if !ok {
						continue
					}
					guard := strings.TrimSpace(dir.Args)
					if guard == "" {
						c.pass.Reportf(field.Pos(), "//tictac:guardedby needs the name of the guarding mutex field")
						continue
					}
					for _, name := range field.Names {
						if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
							c.guardedFields[obj] = guard
						}
					}
				}
			}
		}
	}
}

// walker tracks held locks through one function body.
type walker struct {
	*checker
	// lockedCtx is set inside //tictac:locked functions: the caller vouches
	// for the lock, so every discipline check passes.
	lockedCtx bool
}

func cloneHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// stmts walks a statement list sequentially, mutating held as Lock/Unlock
// calls execute. Nested blocks see a copy: a lock taken inside a branch
// never counts as held after it.
func (w *walker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		if name, isLock, ok := lockCall(w.pass, s); ok {
			if isLock {
				held[name] = true
			} else {
				delete(held, name)
			}
			continue
		}
		w.stmt(s, held)
	}
}

// lockCall matches `expr.Lock()` / `expr.RLock()` (isLock=true) and
// `expr.Unlock()` / `expr.RUnlock()` (isLock=false) statements on
// sync.Mutex/sync.RWMutex values, returning the rendered lock expression.
func lockCall(pass *framework.Pass, s ast.Stmt) (name string, isLock, ok bool) {
	es, isExpr := s.(*ast.ExprStmt)
	if !isExpr {
		return "", false, false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	return lockCallExpr(pass, call)
}

func lockCallExpr(pass *framework.Pass, call *ast.CallExpr) (name string, isLock, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		isLock = true
	case "Unlock", "RUnlock":
		isLock = false
	default:
		return "", false, false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil || !isSyncMutex(t) {
		return "", false, false
	}
	return types.ExprString(sel.X), isLock, true
}

func isSyncMutex(t types.Type) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// stmt dispatches one statement: composite statements recurse with copied
// lock state; leaves are scanned for violations.
func (w *walker) stmt(s ast.Stmt, held map[string]bool) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		w.stmts(st.List, cloneHeld(held))
	case *ast.IfStmt:
		h := cloneHeld(held)
		if st.Init != nil {
			w.stmt(st.Init, h)
		}
		w.scan(st.Cond, h)
		w.stmts(st.Body.List, cloneHeld(h))
		if st.Else != nil {
			w.stmt(st.Else, cloneHeld(h))
		}
	case *ast.ForStmt:
		h := cloneHeld(held)
		if st.Init != nil {
			w.stmt(st.Init, h)
		}
		if st.Cond != nil {
			w.scan(st.Cond, h)
		}
		if st.Post != nil {
			w.stmt(st.Post, h)
		}
		w.stmts(st.Body.List, cloneHeld(h))
	case *ast.RangeStmt:
		w.scan(st.X, held)
		w.stmts(st.Body.List, cloneHeld(held))
	case *ast.SwitchStmt:
		h := cloneHeld(held)
		if st.Init != nil {
			w.stmt(st.Init, h)
		}
		if st.Tag != nil {
			w.scan(st.Tag, h)
		}
		w.caseClauses(st.Body, h)
	case *ast.TypeSwitchStmt:
		h := cloneHeld(held)
		if st.Init != nil {
			w.stmt(st.Init, h)
		}
		w.stmt(st.Assign, h)
		w.caseClauses(st.Body, h)
	case *ast.SelectStmt:
		for _, clause := range st.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				h := cloneHeld(held)
				if cc.Comm != nil {
					w.stmt(cc.Comm, h)
				}
				w.stmts(cc.Body, h)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	case *ast.DeferStmt:
		// `defer X.Unlock()` keeps the lock held for the rest of the span.
		if _, isLock, ok := lockCallExpr(w.pass, st.Call); ok && !isLock {
			return
		}
		w.scan(st.Call, held)
	case *ast.GoStmt:
		w.scan(st.Call, held)
	default:
		w.scan(s, held)
	}
}

func (w *walker) caseClauses(body *ast.BlockStmt, held map[string]bool) {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok {
			h := cloneHeld(held)
			for _, e := range cc.List {
				w.scan(e, h)
			}
			w.stmts(cc.Body, h)
		}
	}
}

// scan inspects a leaf node for discipline violations. Function literals
// are walked as independent bodies with no locks held.
func (w *walker) scan(n ast.Node, held map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch e := m.(type) {
		case *ast.FuncLit:
			inner := &walker{checker: w.checker}
			inner.stmts(e.Body.List, map[string]bool{})
			return false
		case *ast.CallExpr:
			w.checkCall(e, held)
		case *ast.SelectorExpr:
			w.checkFieldAccess(e, held)
		}
		return true
	})
}

func (w *walker) checkCall(call *ast.CallExpr, held map[string]bool) {
	if w.lockedCtx {
		return
	}
	// Rule: calls to //tictac:locked functions need some lock held.
	var callee types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee = w.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		callee = w.pass.TypesInfo.Uses[fun.Sel]
	}
	if callee != nil && w.lockedFuncs[callee] {
		if len(held) == 0 {
			w.pass.Reportf(call.Pos(), "%s is //tictac:locked (caller must hold the lock) but no lock is held here", callee.Name())
		}
		return
	}
	// Rule: EvictionPolicy interface methods need the owning value's lock.
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !policyMethods[sel.Sel.Name] {
		return
	}
	recvType := w.pass.TypesInfo.TypeOf(sel.X)
	if recvType == nil || !isPolicyInterface(recvType) {
		return
	}
	base := baseIdent(sel.X)
	if base == "" || !heldForBase(held, base) {
		w.pass.Reportf(call.Pos(), "EvictionPolicy.%s called without holding %s's lock; policies are not thread-safe and must run under the owning cache's mutex", sel.Sel.Name, renderBase(base, sel.X))
	}
}

func (w *walker) checkFieldAccess(sel *ast.SelectorExpr, held map[string]bool) {
	if w.lockedCtx {
		return
	}
	s, ok := w.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	guard, ok := w.guardedFields[s.Obj()]
	if !ok {
		return
	}
	want := types.ExprString(sel.X) + "." + guard
	if !held[want] {
		w.pass.Reportf(sel.Pos(), "field %s is //tictac:guardedby %s, but %s is not held here", s.Obj().Name(), guard, want)
	}
}

// isPolicyInterface reports whether t is an interface declaring all four
// EvictionPolicy mutation methods.
func isPolicyInterface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	found := 0
	for i := 0; i < iface.NumMethods(); i++ {
		if policyMethods[iface.Method(i).Name()] {
			found++
		}
	}
	return found == len(policyMethods)
}

// baseIdent returns the leftmost identifier of a selector chain
// ("s.policy" -> "s"), or "" when the base is not a plain identifier.
func baseIdent(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// heldForBase reports whether any held lock lives on the given base
// identifier ("s" matches held lock "s.mu").
func heldForBase(held map[string]bool, base string) bool {
	for name := range held {
		if name == base || strings.HasPrefix(name, base+".") {
			return true
		}
	}
	return false
}

func renderBase(base string, fallback ast.Expr) string {
	if base != "" {
		return base
	}
	return types.ExprString(fallback)
}

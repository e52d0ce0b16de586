package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the one call-graph walk shared by the hotpath and
// shardsafe rules. From every root function a rule selects, the walk
// follows the *static* module-local callees — transitively — and runs
// the rule's per-body check on the root and on every callee it reaches,
// so delegating a forbidden construct to a helper one package over does
// not hide it. Dynamic dispatch (interface methods, func values) and
// calls out of the module are not followed: the walk is a
// sound-for-static-calls approximation, not an escape analysis.
//
// A callee that is itself a root is not re-walked — it is checked as its
// own root. Silencing works at either end: //adf:allow <rule> on the call
// site declares the whole call outside the checked context and prunes the
// walk, while //adf:allow <rule> on the offending construct silences just
// that construct.

// funcDeclInfo ties a function declaration to the package holding it.
type funcDeclInfo struct {
	fn  *ast.FuncDecl
	pkg *Package
}

// buildFuncIndex maps every declared function and method of the run to
// its declaration, the shared ground for the call-graph analyses.
func buildFuncIndex(p *ModulePass) map[*types.Func]funcDeclInfo {
	index := make(map[*types.Func]funcDeclInfo)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					index[obj] = funcDeclInfo{fn: fn, pkg: pkg}
				}
			}
		}
	}
	return index
}

// reportFunc records one finding.
type reportFunc func(pos token.Pos, format string, args ...any)

// bodyCheck inspects one function body the walk reached. chain names the
// call path from the root ("Root -> helperA -> helperB"); a root's own
// body is checked with chain equal to its name.
type bodyCheck func(d funcDeclInfo, chain string, report reportFunc)

// callWalker carries the state of one module walk: the declaration
// index and the positions already reported (a helper shared by several
// roots is reported once, for the first chain found).
type callWalker struct {
	p        *ModulePass
	rule     string
	isRoot   func(*ast.FuncDecl) bool
	check    bodyCheck
	index    map[*types.Func]funcDeclInfo
	reported map[token.Pos]bool
}

// walkCallGraph runs check on every function isRoot selects and on every
// static module-local callee reachable from it. An //adf:allow rule on a
// call site prunes the walk there.
func walkCallGraph(p *ModulePass, rule string, isRoot func(*ast.FuncDecl) bool, check bodyCheck) {
	w := &callWalker{
		p:        p,
		rule:     rule,
		isRoot:   isRoot,
		check:    check,
		index:    buildFuncIndex(p),
		reported: make(map[token.Pos]bool),
	}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !isRoot(fn) {
					continue
				}
				visited := make(map[*types.Func]bool)
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					visited[obj] = true
				}
				d := funcDeclInfo{fn: fn, pkg: pkg}
				w.check(d, fn.Name.Name, w.report)
				w.walkCalls(d, fn.Name.Name, visited)
			}
		}
	}
}

// walkCalls scans d's body, closures included, for static calls to
// module-local functions and checks each resolved callee that is not a
// root itself. chain is the call path so far.
func (w *callWalker) walkCalls(d funcDeclInfo, chain string, visited map[*types.Func]bool) {
	ast.Inspect(d.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(d.pkg, call)
		if callee == nil {
			return true
		}
		decl, ok := w.index[callee]
		if !ok {
			return true
		}
		// Consulted before the visited short-circuit so the suppression
		// registers as used even when another path reached the callee
		// first.
		if w.p.Allowed(call.Pos(), w.rule) {
			return true
		}
		if w.isRoot(decl.fn) || visited[callee] {
			return true
		}
		visited[callee] = true
		sub := chain + " -> " + decl.fn.Name.Name
		w.check(decl, sub, w.report)
		w.walkCalls(decl, sub, visited)
		return true
	})
}

func (w *callWalker) report(pos token.Pos, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.p.Reportf(pos, format, args...)
}

// staticCallee resolves the called function of a call expression to its
// declared *types.Func, generic instantiations included (Origin maps an
// instantiated method back to its source declaration). Builtins, type
// conversions, func-typed variables and interface methods resolve to
// nil or to objects absent from the module index, so they are skipped.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[f.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

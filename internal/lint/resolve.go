package lint

import (
	"go/ast"
	"go/types"
)

// This file holds the resolution helpers the module-wide rules share:
// goroleak follows a goroutine's static callees and lockorder a held
// lock's, both through the declaration index; goroleak, lockorder and
// streamowner resolve channels and mutexes to the variables that hold
// them. Dynamic dispatch (interface methods, func values) and calls out
// of the module resolve to nothing: the walks are sound for static
// calls only, not an escape analysis.

// funcDeclInfo ties a function declaration to the package holding it.
type funcDeclInfo struct {
	fn  *ast.FuncDecl
	pkg *Package
}

// buildFuncIndex maps every declared function and method of the run to
// its declaration.
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

// fieldVarOf resolves an expression to the struct field it selects, or
// nil when it is not a field selection.
func fieldVarOf(pkg *Package, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// isPkgLevelVar reports whether v is declared at package scope.
func isPkgLevelVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// rootVar unwraps index, dereference, field-selection and parenthesis
// layers around an expression and returns the variable at its root, or
// nil when the root is not a variable.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			// other.Global: step to the selected object when the base is a
			// package name, otherwise keep unwrapping the base expression.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					e = x.Sel
					continue
				}
			}
			e = x.X
		case *ast.Ident:
			o := info.Uses[x]
			if o == nil {
				o = info.Defs[x]
			}
			v, _ := o.(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// namedOf unwraps pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

package lint

import (
	"go/ast"
	"go/types"
)

// HotPath checks functions annotated //adf:hotpath — the per-tick stage
// and cluster-assignment entry points whose zero-allocation behaviour
// TestZeroAllocTick asserts at runtime — and every static module-local
// callee reachable from them (callgraph.go). Those bodies may not contain
// the constructs that allocate or capture: append, make, new, &T{...} and
// slice/map composite literals, func literals (closures), go and defer
// statements. Struct and array *value* literals are allowed — they live
// in registers or on the stack. Genuine cold paths (first-touch growth,
// pool refills) carry //adf:allow hotpath with a reason, on the construct
// or on the call site that leads to it.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocating constructs in and reachable from //adf:hotpath functions",
	Explain: `//adf:hotpath on a function declares it part of the per-tick
zero-allocation path.

Annotation grammar (function doc comment):
    //adf:hotpath

Flagged inside the body and in every statically reachable module-local
callee: append, make, new, &T{...}, slice/map literals, closures, go
and defer statements. Each finding names the call chain from the root.
A callee that is itself //adf:hotpath is its own root. //adf:allow
hotpath on a call site declares the call a cold path and prunes the
walk; on a construct it silences just that construct.`,
	RunModule: func(p *ModulePass) { walkCallGraph(p, "hotpath", isHotPath, checkAllocFree) },
}

// hotpathDirective marks a function whose body (and static callees) the
// hotpath analyzer checks for allocating constructs.
const hotpathDirective = "//adf:hotpath"

// isHotPath reports whether a function declaration carries the
// //adf:hotpath directive.
func isHotPath(fn *ast.FuncDecl) bool {
	return hasDirective(fn.Doc, hotpathDirective)
}

// checkAllocFree flags the allocating constructs of one body on a hotpath
// call chain, the root's own body included.
func checkAllocFree(d funcDeclInfo, chain string, report reportFunc) {
	flag := func(n ast.Node, what string) {
		report(n.Pos(), "%s in %s is not allocation-free (//adf:hotpath chain %s): hoist it behind a cold path, or //adf:allow hotpath on the construct or the call site", what, d.fn.Name.Name, chain)
	}
	ast.Inspect(d.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			flag(n, "closure")
			return false
		case *ast.GoStmt:
			flag(n, "go statement")
		case *ast.DeferStmt:
			flag(n, "defer")
		case *ast.UnaryExpr:
			if lit, ok := n.X.(*ast.CompositeLit); ok {
				flag(n, "&"+litTypeName(d.pkg, lit)+"{...}")
				return false
			}
		case *ast.CompositeLit:
			t := d.pkg.Info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				flag(n, "slice literal")
			case *types.Map:
				flag(n, "map literal")
			}
		case *ast.CallExpr:
			ident, ok := n.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			if _, isBuiltin := d.pkg.Info.Uses[ident].(*types.Builtin); !isBuiltin {
				return true
			}
			switch ident.Name {
			case "append", "make", "new":
				flag(n, ident.Name)
			}
		}
		return true
	})
}

// litTypeName renders a composite literal's type for a diagnostic.
func litTypeName(pkg *Package, lit *ast.CompositeLit) string {
	if lit.Type != nil {
		return types.ExprString(lit.Type)
	}
	if t := pkg.Info.TypeOf(lit); t != nil {
		return t.String()
	}
	return "T"
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak proves goroutine lifecycle in the concurrent packages (the
// served/distributed layer: hla, obs, engine, experiment, rtiserver).
// Every go statement there must carry a statically provable termination
// path — evidence the goroutine is not leaked:
//
//   - a reachable sync.WaitGroup.Done call (the launcher can wait for
//     it);
//   - a range or receive on a channel some function in the module
//     closes (close signals shutdown);
//   - a receive from a context's Done channel (<-ctx.Done());
//
// searched through the goroutine body and every statically reachable
// module-local callee. Work handed to a *nested* goroutine does not
// count for the outer one. A worker pool's goroutines pass by ranging
// over (or receiving from) the queue channel their pool's close method
// closes.
//
// A goroutine meant to live until process exit — an HTTP server pumping
// until the listener closes — carries //adf:allow goroleak with the
// reason, which the allowaudit rule holds to account like any other
// suppression.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every go statement in the concurrent packages needs a provable termination path (WaitGroup.Done, close-signalled channel, ctx.Done)",
	Explain: `goroleak applies to the concurrent packages (internal/hla,
internal/obs, internal/engine, internal/experiment, cmd/rtiserver).

A go statement passes when the goroutine body — or a module-local
function it statically calls — contains one of:
    wg.Done()            a reachable sync.WaitGroup.Done
    for x := range ch    ranging a channel the module closes somewhere
    <-ch                 receiving from a module-closed channel
    <-ctx.Done()         a context cancellation receive
Witnesses inside a nested go statement do not count for the outer one.

A goroutine meant to live until process exit carries
//adf:allow goroleak — reason; allowaudit flags it when stale or when
the reason is missing.`,
	RunModule: runGoroLeak,
}

func runGoroLeak(p *ModulePass) {
	w := &leakWalker{p: p, index: buildFuncIndex(p), closed: collectClosedChans(p)}
	for _, pkg := range p.Pkgs {
		if !p.Concurrent(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					g, ok := n.(*ast.GoStmt)
					if !ok || w.terminates(pkg, g) {
						return true
					}
					p.Reportf(g.Pos(), "goroutine launched in %s has no provable termination path (no reachable WaitGroup.Done, close-signalled channel receive, or ctx.Done select): tie its lifetime to a WaitGroup or shutdown channel, or //adf:allow goroleak with the reason it may outlive its launcher", funcDisplayName(fn))
					return true
				})
			}
		}
	}
}

// leakWalker searches goroutine bodies (and their static callees) for a
// termination witness.
type leakWalker struct {
	p      *ModulePass
	index  map[*types.Func]funcDeclInfo
	closed map[*types.Var]bool
}

// terminates reports whether the goroutine launched by g has a
// termination witness. A `go fn(...)` call is followed into fn's body;
// a dynamic call target (interface method, func value) has no provable
// path.
func (w *leakWalker) terminates(pkg *Package, g *ast.GoStmt) bool {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return w.bodyTerminates(pkg, lit.Body, make(map[*types.Func]bool))
	}
	callee := staticCallee(pkg, g.Call)
	if callee == nil {
		return false
	}
	d, ok := w.index[callee]
	if !ok {
		return false
	}
	return w.bodyTerminates(d.pkg, d.fn.Body, map[*types.Func]bool{callee: true})
}

// bodyTerminates scans one body for a witness, recursing into static
// module-local callees and inline closures but not into nested go
// statements (their termination is their own proof obligation).
func (w *leakWalker) bodyTerminates(pkg *Package, body ast.Node, visited map[*types.Func]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // a nested goroutine's Done is not this one's
		case *ast.RangeStmt:
			if w.closedChanExpr(pkg, n.X) {
				found = true
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && w.recvTerminates(pkg, n.X) {
				found = true
				return false
			}
		case *ast.CallExpr:
			if isWaitGroupDone(pkg, n) {
				found = true
				return false
			}
			if callee := staticCallee(pkg, n); callee != nil && !visited[callee] {
				if d, ok := w.index[callee]; ok {
					visited[callee] = true
					if w.bodyTerminates(d.pkg, d.fn.Body, visited) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// recvTerminates reports whether receiving from x is a termination
// signal: the channel is closed somewhere in the module, or it is a
// context's Done channel.
func (w *leakWalker) recvTerminates(pkg *Package, x ast.Expr) bool {
	if w.closedChanExpr(pkg, x) {
		return true
	}
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// closedChanExpr reports whether x resolves to a channel variable some
// function in the module closes.
func (w *leakWalker) closedChanExpr(pkg *Package, x ast.Expr) bool {
	if v := fieldVarOf(pkg, x); v != nil {
		return w.closed[v]
	}
	if v := rootVar(pkg.Info, x); v != nil {
		return w.closed[v]
	}
	return false
}

// isWaitGroupDone reports whether call is (*sync.WaitGroup).Done.
func isWaitGroupDone(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Done" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	return named != nil && named.Obj().Name() == "WaitGroup"
}

// collectClosedChans gathers every channel variable (field or local)
// that any function in the module closes.
func collectClosedChans(p *ModulePass) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				ident, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || ident.Name != "close" || len(call.Args) != 1 {
					return true
				}
				if _, isBuiltin := pkg.Info.Uses[ident].(*types.Builtin); !isBuiltin {
					return true
				}
				if v := fieldVarOf(pkg, call.Args[0]); v != nil {
					out[v] = true
				} else if v := rootVar(pkg.Info, call.Args[0]); v != nil {
					out[v] = true
				}
				return true
			})
		}
	}
	return out
}

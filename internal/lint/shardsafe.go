package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShardSafe owns every check on the bodies the region-sharded pipeline
// runs concurrently. From every //adf:shardstage root it follows the
// stage's *static* module-local callees — transitively, through the
// shared call-graph walk (callgraph.go) — and proves every mutation and
// every draw the whole reachable region performs is shard-owned:
//
//   - writes whose root is a local, a parameter or the receiver are the
//     designed data path: shard stages receive exactly the shard
//     context (and state keyed by nodes the shard owns, such as
//     dense.Slab rows indexed by the member list), so a receiver- or
//     parameter-rooted chain stays inside the shard by construction;
//   - writes whose root is a package-level variable are flagged unless
//     the variable's declaration carries //adf:shardlocal — the
//     annotation that declares a global to be shard-indexed storage
//     (one disjoint slot per shard) rather than shared state;
//   - writes to captured variables inside closures are flagged: a
//     closure can outlive the stage or run under a scheduler the merge
//     never ordered, so mutations must be passed explicitly;
//   - go statements anywhere in the reachable region are flagged: a
//     goroutine forked mid-stage escapes the deterministic merge;
//   - method calls on a sequential *sim.RNG stream are flagged: such a
//     stream hands out values in consumption order, so the value a draw
//     sees depends on which shard drew first — a nondeterminism the race
//     detector cannot see when the call site is reachable from several
//     shards. sim.Keyed draws, pure functions of (stream, node, tick),
//     are shard-safe.
//
// Dynamic dispatch (interface methods, func values) is not followed: the
// gateway/filter interfaces a stage calls through are proved at their
// own //adf:shardstage implementations.
var ShardSafe = &Analyzer{
	Name: "shardsafe",
	Doc:  "prove code reachable from //adf:shardstage stages touches only shard-owned state (no package-level or captured-variable writes, goroutines, or sequential *sim.RNG draws)",
	Explain: `shardsafe proves shard isolation interprocedurally.

Annotation grammar:
    //adf:shardstage            on a function: it runs concurrently, once
                                per region shard, during a pipeline tick
    //adf:shardlocal            on a package-level var: per-shard slots,
                                indexed so shards never share an element

From every //adf:shardstage root, the static call graph is walked.
Flagged in the root and everywhere reachable: writes to package-level
variables not declared //adf:shardlocal, writes to variables captured
from an enclosing scope, go statements (shards must not spawn), and
sequential *sim.RNG draws. A callee annotated
//adf:shardstage is its own root; //adf:allow shardsafe on a call site
prunes the walk, on a construct it silences just that construct.`,
	RunModule: runShardSafe,
}

// shardStageDirective marks a function the region-sharded pipeline runs
// concurrently across shards.
const shardStageDirective = "//adf:shardstage"

// shardLocalDirective marks a package-level variable as shard-indexed
// storage: every shard touches only its own disjoint slot, so writes
// rooted there cannot cross shards.
const shardLocalDirective = "//adf:shardlocal"

// isShardStage reports whether a function declaration carries the
// //adf:shardstage directive.
func isShardStage(fn *ast.FuncDecl) bool {
	return hasDirective(fn.Doc, shardStageDirective)
}

func runShardSafe(p *ModulePass) {
	shardlocal := collectShardLocals(p)
	walkCallGraph(p, "shardsafe", isShardStage, func(d funcDeclInfo, chain string, report reportFunc) {
		checkShardBody(d, chain, shardlocal, report)
	})
}

// checkShardBody flags the shard-unsafe constructs of one body on a
// shard-stage call chain, the root's own body included.
func checkShardBody(d funcDeclInfo, chain string, shardlocal map[*types.Var]bool, report reportFunc) {
	name := d.fn.Name.Name
	checkWrite := func(lhs ast.Expr) {
		v := rootVar(d.pkg.Info, lhs)
		if v == nil || !isPkgLevelVar(v) || shardlocal[v] {
			return
		}
		report(lhs.Pos(), "write to package-level %s in %s can alias another shard (//adf:shardstage chain %s): keep mutations on the shard context, declare the variable //adf:shardlocal if every shard owns a disjoint slot, or //adf:allow shardsafe with a reason", v.Name(), name, chain)
	}
	ast.Inspect(d.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "goroutine launched in %s escapes the deterministic merge (//adf:shardstage chain %s): run the work inline in the stage, or //adf:allow shardsafe if it provably runs outside the concurrent phase", name, chain)
		case *ast.FuncLit:
			checkCaptures(d, n, chain, report)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(n.X)
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			m, ok := d.pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || m.Signature().Recv() == nil || !isSequentialRNG(m.Signature().Recv().Type()) {
				return true
			}
			report(n.Pos(), "sim.RNG.%s draw in %s consumes a sequential stream, so the value depends on shard scheduling (//adf:shardstage chain %s): use a sim.Keyed draw keyed by (stream, node, tick), or //adf:allow shardsafe if the call provably runs outside the concurrent phase", sel.Sel.Name, name, chain)
		}
		return true
	})
}

// checkCaptures flags writes inside a closure whose target is a
// variable declared outside the closure (and not package-level, which
// the write check already covers): the mutation escapes into captured
// state the merge cannot order.
func checkCaptures(d funcDeclInfo, lit *ast.FuncLit, chain string, report reportFunc) {
	check := func(e ast.Expr) {
		v := rootVar(d.pkg.Info, e)
		if v == nil || isPkgLevelVar(v) || (v.Pos() >= lit.Pos() && v.Pos() <= lit.End()) {
			return // not captured: package-level, or declared inside this closure
		}
		report(e.Pos(), "write to captured variable %s in a closure in %s escapes the shard stage (//adf:shardstage chain %s): pass the state as an explicit argument, or //adf:allow shardsafe with a reason", v.Name(), d.fn.Name.Name, chain)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(n.X)
		}
		return true
	})
}

// isSequentialRNG reports whether t is sim.RNG (or a pointer to it) —
// the sequential stream type whose draws are consumption-ordered.
func isSequentialRNG(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RNG" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/sim")
}

// collectShardLocals gathers every package-level variable of the run
// whose declaration (the var block or the individual spec, doc or
// trailing comment) carries the //adf:shardlocal directive.
func collectShardLocals(p *ModulePass) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				declHas := hasDirective(gd.Doc, shardLocalDirective)
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					if !declHas && !hasDirective(vs.Doc, shardLocalDirective) && !hasDirective(vs.Comment, shardLocalDirective) {
						continue
					}
					for _, name := range vs.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							out[v] = true
						}
					}
				}
			}
		}
	}
	return out
}

// isPkgLevelVar reports whether v is declared at package scope.
func isPkgLevelVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// rootVar unwraps index, dereference, field-selection and parenthesis
// layers around an assignment target and returns the variable at its
// root, or nil when the root is not a variable.
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

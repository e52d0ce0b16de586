package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the reproduction's bit-for-bit reproducibility
// contract. Module wide, code may not read the wall clock (time.Now,
// time.Since, time.Until) or draw from math/rand's global source — virtual
// time is the engine pipeline's tick time (engine.TickTime) and
// randomness comes from injected *sim.RNG streams. Inside the simulation
// packages it additionally forbids bare go statements: concurrency there
// must go through the engine's worker pools (engine.Group), whose
// sharding is designed to consume RNG streams identically to a
// sequential run.
//
// The checks on the bodies the region-sharded pipeline runs concurrently
// (package-level writes, sequential *sim.RNG draws) belong to the
// shardsafe rule.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, the global math/rand source, and bare goroutines in simulation packages",
	Explain: `determinism keeps simulation runs bit-for-bit reproducible.

Module-wide: no time.Now/Since/Until (wall-clock state) and no global
math/rand draws — randomness comes from injected *sim.RNG streams.
In the simulation packages additionally: no bare go statements
(concurrency goes through the engine's pools), except the workers of a
queue the launching function claims with //adf:owns queue:<field>.

Shard-stage bodies (//adf:shardstage) are checked by shardsafe.

Escape hatch: //adf:allow determinism — reason.`,
	Run: runDeterminism,
}

// bannedClockFuncs are the package-level time functions that read the wall
// clock. time.Sleep is deliberately absent: it delays but never injects a
// nondeterministic value into a result.
var bannedClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// allowedRandFuncs are the math/rand package-level functions that only
// construct private sources and are therefore deterministic per seed.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDeterminism(p *Pass) {
	// spec tracks the enclosing function's //adf:owns claims while
	// walking its body: a goroutine draining a claimed worker queue is
	// exempt from the bare-go rule because the streamowner rule proves
	// the single-drainer property the allow comment used to assert.
	var spec *ownsSpec
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok {
				spec = parseOwns(fn)
			} else {
				spec = nil
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if p.Sim && !drainsOwnedQueue(spec, n) {
						p.Reportf(n.Pos(), "bare go statement in a simulation package: schedule through the engine's worker pool (engine.Group) so RNG-stream consumption stays deterministic")
					}
				case *ast.SelectorExpr:
					obj := p.Pkg.Info.Uses[n.Sel]
					fn, ok := obj.(*types.Func)
					if !ok || fn.Pkg() == nil {
						return true
					}
					// Only package-level functions: methods such as
					// (*rand.Rand).Float64 on an injected source are fine.
					if fn.Signature().Recv() != nil {
						return true
					}
					switch fn.Pkg().Path() {
					case "time":
						if bannedClockFuncs[fn.Name()] {
							p.Reportf(n.Pos(), "call to time.%s reads the wall clock: use virtual time, the engine pipeline's tick time (or //adf:allow determinism for measurement-only code)", fn.Name())
						}
					case "math/rand", "math/rand/v2":
						if !allowedRandFuncs[fn.Name()] {
							p.Reportf(n.Pos(), "use of global %s.%s: draw from an injected *sim.RNG stream so runs are reproducible per seed", fn.Pkg().Name(), fn.Name())
						}
					}
				}
				return true
			})
		}
	}
}

// drainsOwnedQueue reports whether a go statement launches the worker
// closure of a queue the enclosing function claims with
// //adf:owns queue:<field> — syntactically, a func literal ranging over
// (or receiving from) a selector of the claimed field name. The
// streamowner rule carries the semantic proof (channel-typed field,
// single receive site module-wide); this check only routes the
// exemption.
func drainsOwnedQueue(spec *ownsSpec, g *ast.GoStmt) bool {
	if spec == nil || len(spec.queues) == 0 {
		return false
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	drains := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		var x ast.Expr
		switch n := n.(type) {
		case *ast.RangeStmt:
			x = n.X
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				x = n.X
			}
		}
		if x == nil {
			return true
		}
		if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
			for _, q := range spec.queues {
				if sel.Sel.Name == q {
					drains = true
					return false
				}
			}
		}
		return true
	})
	return drains
}

package lint

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the reproduction's bit-for-bit reproducibility
// contract module wide: code may not read the wall clock (time.Now,
// time.Since, time.Until) or draw from math/rand's global source —
// virtual time is the engine pipeline's tick time (engine.TickTime) and
// randomness comes from injected *sim.RNG and sim.Keyed streams.
//
// Goroutines need no rule here: the digest gates compare whole runs at
// 1, 4 and NumCPU workers under the race detector, and goroleak holds
// every goroutine of the concurrent packages to a termination path.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads and the global math/rand source",
	Explain: `determinism keeps simulation runs bit-for-bit reproducible.

Module-wide: no time.Now/Since/Until (wall-clock state) and no global
math/rand draws — randomness comes from injected *sim.RNG and sim.Keyed
streams.

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
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
			// Only package-level functions: methods such as
			// (*rand.Rand).Float64 on an injected source are fine.
			if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedClockFuncs[fn.Name()] {
					p.Reportf(sel.Pos(), "call to time.%s reads the wall clock: use virtual time, the engine pipeline's tick time (or //adf:allow determinism for measurement-only code)", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[fn.Name()] {
					p.Reportf(sel.Pos(), "use of global %s.%s: draw from an injected *sim.RNG stream so runs are reproducible per seed", fn.Pkg().Name(), fn.Name())
				}
			}
			return true
		})
	}
}

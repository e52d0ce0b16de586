package lint

import (
	"go/ast"
	"go/token"
)

// ObsGate enforces the zero-cost observability discipline on the
// obs-instrumented packages (internal/hla, internal/wire): every obs
// recording call site (Emit, ObserveRPC, ObserveFreshness, RecordRPC,
// RecordSpan, RecordShardSpan, RecordTickSpans) must sit lexically
// inside an if statement whose condition checks the enable gate: a call
// named Enabled, On, Verbose or Valid, or a comparison against the
// literal 0 (the clock-token idiom `if start != 0 { ... }`, including
// recording in the else branch of `if start == 0`). Wall-clock reads
// are the determinism rule's, which bans time.Now, time.Since and
// time.Until module-wide.
//
// Trace-context *forwarding* is deliberately not covered: propagating a
// TraceContext through a frame costs nothing extra and must keep
// working even when the middle hop's own recording is disabled.
var ObsGate = &Analyzer{
	Name: "obsgate",
	Doc:  "obs recording in the instrumented packages must sit behind the atomic enable gate",
	Explain: `obsgate applies to the obs-instrumented packages
(internal/hla, internal/wire). Take timestamps with obs.RPCClock() /
obs.StageClock(start): they return 0 when observability is disabled,
and a zero start token turns the whole downstream Observe/Record chain
into no-ops, which is what keeps the disabled hot path zero-cost.

Recording: a call named Emit, ObserveRPC, ObserveFreshness, RecordRPC,
RecordSpan, RecordShardSpan or RecordTickSpans must be lexically inside
an if whose condition consults the gate — a call named Enabled, On,
Verbose or Valid, or a comparison against the literal 0 (the clock-token
idiom: if start != 0 { ... }). The else branch of a zero test counts;
code after an early 'if start == 0 { return }' does not — keep the gate
visibly enclosing the recording.

Escape hatch: //adf:allow obsgate — reason.`,
	RunModule: runObsGate,
}

// obsRecordingNames are the callee names the gating requirement covers.
var obsRecordingNames = map[string]bool{
	"Emit":             true,
	"ObserveRPC":       true,
	"ObserveFreshness": true,
	"RecordRPC":        true,
	"RecordSpan":       true,
	"RecordShardSpan":  true,
	"RecordTickSpans":  true,
}

// obsGateCallNames are condition calls that count as consulting the
// enable gate.
var obsGateCallNames = map[string]bool{
	"Enabled": true,
	"On":      true,
	"Verbose": true,
	"Valid":   true,
}

func runObsGate(p *ModulePass) {
	for _, pkg := range p.Pkgs {
		if !p.ObsGated(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkObsGates(p, fn)
			}
		}
	}
}

// checkObsGates walks one function, tracking whether each call site is
// lexically enclosed by a gate-checking if statement.
func checkObsGates(p *ModulePass, fn *ast.FuncDecl) {
	check := func(call *ast.CallExpr, gated bool) {
		name := calleeDisplayName(call.Fun)
		if !obsRecordingNames[name] || gated {
			return
		}
		p.Reportf(call.Pos(), "obs recording call %s outside an enable-gated if in %s: wrap it in a gate check (a zero test on an obs clock token like `if start != 0 { ... }`, or a call such as obs.Enabled() / Events.On()) — or //adf:allow obsgate with a reason", name, funcDisplayName(fn))
	}
	var walk func(n ast.Node, gated bool)
	walk = func(n ast.Node, gated bool) {
		if n == nil {
			return
		}
		if ifs, ok := n.(*ast.IfStmt); ok {
			// The init statement and the condition itself run
			// unconditionally; only the branches inherit the gate.
			if ifs.Init != nil {
				walk(ifs.Init, gated)
			}
			walk(ifs.Cond, gated)
			g := gated || isObsGateCond(ifs.Cond)
			walk(ifs.Body, g)
			if ifs.Else != nil {
				walk(ifs.Else, g)
			}
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if ifs, ok := m.(*ast.IfStmt); ok {
				walk(ifs, gated)
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok {
				check(call, gated)
			}
			return true
		})
	}
	walk(fn.Body, false)
}

// isObsGateCond reports whether an if condition consults the enable
// gate: any call named Enabled/On/Verbose/Valid, or any comparison
// against the literal 0 (the clock-token idiom).
func isObsGateCond(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if obsGateCallNames[calleeDisplayName(n.Fun)] {
				found = true
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
				if isZeroLiteral(n.X) || isZeroLiteral(n.Y) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// calleeDisplayName extracts the final name of a call target: Emit for
// both Emit(...) and obs.Events.Emit(...).
func calleeDisplayName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// isZeroLiteral reports whether an expression is the integer literal 0.
func isZeroLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "0"
}

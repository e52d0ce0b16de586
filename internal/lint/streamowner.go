package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// StreamOwner tracks every keyed randomness stream and worker queue to
// its consumers and proves each has exactly one owner — the property
// that makes the sharded pipeline's draws reproducible regardless of
// worker scheduling. Ownership is declared on the
// consuming function with the //adf:owns directive:
//
//	//adf:owns <resource> [<resource>...] [— why]
//
// where each resource is one of
//
//   - StreamXxx — a sim.StreamID constant: the function performs keyed
//     draws on that stream. Every keyed draw outside internal/sim must
//     sit in a function claiming its stream, a claimed stream must
//     actually be drawn (stale claims are flagged), and all of a
//     stream's claimants must live in a single package: keyed draws
//     are pure functions of (stream, id, tick), so the one remaining
//     hazard is two subsystems keying the same stream with colliding
//     ids — a hazard exactly when ownership spans packages.
//
//   - queue:<field> — a channel field whose worker goroutines the
//     function launches: the claim is that those goroutines are the
//     channel's only receivers, i.e. the function is the single place
//     work is drained, so stream consumption inside the workers is
//     ordered by the dispatch protocol, not by scheduling. The
//     function must contain a go statement whose closure ranges over
//     (or receives from) a channel field of that name, no other
//     function may receive from the same field, and no second function
//     may claim it.
//
// The determinism and goroleak rules consult the queue claims for a
// goroutine draining a claimed queue: the proof obligation moved here.
// An unverifiable ownership pattern falls back to //adf:allow
// streamowner with a reason.
var StreamOwner = &Analyzer{
	Name: "streamowner",
	Doc:  "prove every keyed RNG stream and worker queue has exactly one owning consumer, declared //adf:owns",
	Explain: `streamowner proves single-ownership of randomness and work queues.

Annotation grammar (function doc comment, comma-separated claims):
    //adf:owns StreamXxx          exclusive use of a keyed stream const
    //adf:owns queue:<field>      this function's goroutines are the
                                  sole drainers of a channel field

Flagged: a keyed draw in a function that does not claim its stream, a
stream claimed in more than one package, a queue received from outside
its owner or claimed twice, and a claim naming nothing the function
uses (stale). queue: claims also exempt the draining
goroutines from goroleak.

Escape hatch: //adf:allow streamowner — reason.`,
	RunModule: runStreamOwner,
}

// ownsDirective declares stream ownership on the consuming function.
const ownsDirective = "//adf:owns"

// ownsSpec is one function's parsed //adf:owns claims.
type ownsSpec struct {
	pos     token.Pos
	streams []string // StreamXxx keyed-constant claims
	queues  []string // queue:<field> worker-channel claims
	// malformed collects tokens that fit no resource form.
	malformed []string
}

// parseOwns extracts a function's //adf:owns claims from its doc
// comment, or nil when it carries none. The resource list ends at the
// first separator token (em-dash or hyphen); the rest is free text.
func parseOwns(fn *ast.FuncDecl) *ownsSpec {
	if fn.Doc == nil {
		return nil
	}
	var spec *ownsSpec
	for _, c := range fn.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, ownsDirective)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		if spec == nil {
			spec = &ownsSpec{pos: c.Pos()}
		}
		for _, tok := range strings.Fields(rest) {
			if tok == "—" || tok == "-" || tok == "--" {
				break
			}
			switch {
			case strings.HasPrefix(tok, "queue:"):
				spec.queues = append(spec.queues, strings.TrimPrefix(tok, "queue:"))
			case strings.HasPrefix(tok, "Stream"):
				spec.streams = append(spec.streams, tok)
			default:
				spec.malformed = append(spec.malformed, tok)
			}
		}
	}
	return spec
}

// ownsClaim ties a parsed spec to its declaring function.
type ownsClaim struct {
	fn   *ast.FuncDecl
	pkg  *Package
	spec *ownsSpec
}

// keyedDraw is one call on a sim.Keyed method outside internal/sim.
type keyedDraw struct {
	pos    token.Pos
	stream string // constant name, "" when not a named constant
	fn     *ast.FuncDecl
}

// recvSite is one channel receive (range or <-) on a struct field.
type recvSite struct {
	pos   token.Pos
	field *types.Var
	fn    *ast.FuncDecl
}

func runStreamOwner(p *ModulePass) {
	var (
		claims  []ownsClaim
		specOf  = make(map[*ast.FuncDecl]*ownsSpec)
		keyed   []keyedDraw
		recvs   []recvSite
		drawnIn = make(map[*ast.FuncDecl]map[string]bool)
		fnName  = make(map[*ast.FuncDecl]string)
	)
	for _, pkg := range p.Pkgs {
		simProvider := strings.HasSuffix(pkg.Path, "internal/sim")
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				fnName[fn] = funcDisplayName(fn)
				if spec := parseOwns(fn); spec != nil {
					claims = append(claims, ownsClaim{fn: fn, pkg: pkg, spec: spec})
					specOf[fn] = spec
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						sel, ok := n.Fun.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						m, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
						if !ok || m.Signature().Recv() == nil || !isKeyedRNG(m.Signature().Recv().Type()) ||
							simProvider || len(n.Args) == 0 {
							return true
						}
						name := streamConstName(pkg, n.Args[0])
						keyed = append(keyed, keyedDraw{pos: n.Pos(), stream: name, fn: fn})
						if name != "" {
							set := drawnIn[fn]
							if set == nil {
								set = make(map[string]bool)
								drawnIn[fn] = set
							}
							set[name] = true
						}
					case *ast.RangeStmt:
						if t := pkg.Info.TypeOf(n.X); t != nil {
							if _, ok := t.Underlying().(*types.Chan); ok {
								if v := fieldVarOf(pkg, n.X); v != nil {
									recvs = append(recvs, recvSite{pos: n.X.Pos(), field: v, fn: fn})
								}
							}
						}
					case *ast.UnaryExpr:
						if n.Op == token.ARROW {
							if v := fieldVarOf(pkg, n.X); v != nil {
								recvs = append(recvs, recvSite{pos: n.Pos(), field: v, fn: fn})
							}
						}
					}
					return true
				})
			}
		}
	}

	// Malformed specs.
	for _, c := range claims {
		for _, tok := range c.spec.malformed {
			p.Reportf(c.spec.pos, "malformed //adf:owns resource %q on %s: want a StreamXxx constant or queue:<field>", tok, fnName[c.fn])
		}
	}

	// Keyed draws: every draw claimed, every claim drawn, one owning
	// package per stream.
	for _, d := range keyed {
		if d.stream == "" {
			p.Reportf(d.pos, "keyed draw in %s whose stream is not a named sim.StreamID constant: ownership cannot be checked — use a StreamXxx constant (or //adf:allow streamowner with a reason)", fnName[d.fn])
			continue
		}
		spec := specOf[d.fn]
		if spec == nil || !containsString(spec.streams, d.stream) {
			p.Reportf(d.pos, "keyed draw on %s in %s without an ownership claim: annotate the function //adf:owns %s, or route the draw through the stream's owner", d.stream, fnName[d.fn], d.stream)
		}
	}
	streamPkgs := make(map[string]map[string]bool)
	for _, c := range claims {
		for _, s := range c.spec.streams {
			if !drawnIn[c.fn][s] {
				p.Reportf(c.spec.pos, "stale //adf:owns %s on %s: the function performs no keyed draw on that stream — delete the claim", s, fnName[c.fn])
			}
			pkgs := streamPkgs[s]
			if pkgs == nil {
				pkgs = make(map[string]bool)
				streamPkgs[s] = pkgs
			}
			pkgs[c.pkg.Path] = true
		}
	}
	for _, c := range claims {
		for _, s := range c.spec.streams {
			if pkgs := streamPkgs[s]; len(pkgs) > 1 {
				p.Reportf(c.spec.pos, "keyed stream %s is claimed in more than one package (%s): a stream has exactly one owning package — split the stream or move the draws behind the owner's API", s, joinSorted(pkgs))
			}
		}
	}

	// Queue claims: the claimant launches a goroutine draining the
	// channel field, nobody else receives from it, and no second
	// function claims it.
	queueOwner := make(map[*types.Var]*ownsClaim)
	for i := range claims {
		c := &claims[i]
		for _, name := range c.spec.queues {
			v := goroutineQueueField(c.pkg, c.fn, name)
			if v == nil {
				p.Reportf(c.spec.pos, "//adf:owns queue:%s on %s: no goroutine launched by the function ranges over (or receives from) a channel field named %s", name, fnName[c.fn], name)
				continue
			}
			if prev := queueOwner[v]; prev != nil {
				p.Reportf(c.spec.pos, "channel field %s is already owned by %s: a worker queue has exactly one launching owner — merge the pools or split the channel", v.Name(), fnName[prev.fn])
				continue
			}
			queueOwner[v] = c
		}
	}
	for _, r := range recvs {
		owner := queueOwner[r.field]
		if owner == nil || r.fn == owner.fn {
			continue
		}
		p.Reportf(r.pos, "receive from claimed worker queue %s outside its owner %s: the owning goroutines are the channel's only receivers — dispatch through the pool instead", r.field.Name(), fnName[owner.fn])
	}
}

// funcDisplayName renders Recv.Name or Name for diagnostics.
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		return recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// recvTypeName extracts the receiver's base type name, stripping
// pointers and type parameters.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// isKeyedRNG reports whether t is sim.Keyed (or a pointer to it) — the
// counter-based PRF whose draws are pure functions of (stream, id, tick).
func isKeyedRNG(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Keyed" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/sim")
}

// streamConstName resolves a keyed draw's first argument to the name of
// a sim.StreamID constant, or "".
func streamConstName(pkg *Package, e ast.Expr) string {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[x.Sel]
	case *ast.Ident:
		obj = pkg.Info.Uses[x]
	}
	c, ok := obj.(*types.Const)
	if !ok {
		return ""
	}
	named, ok := c.Type().(*types.Named)
	if !ok || named.Obj().Name() != "StreamID" {
		return ""
	}
	return c.Name()
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

// goroutineQueueField finds the channel field named name that a
// goroutine launched inside fn ranges over or receives from.
func goroutineQueueField(pkg *Package, fn *ast.FuncDecl, name string) *types.Var {
	var found *types.Var
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			var x ast.Expr
			switch m := m.(type) {
			case *ast.RangeStmt:
				x = m.X
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					x = m.X
				}
			}
			if x == nil {
				return true
			}
			v := fieldVarOf(pkg, x)
			if v == nil || v.Name() != name {
				return true
			}
			if _, ok := v.Type().Underlying().(*types.Chan); ok {
				found = v
				return false
			}
			return true
		})
		return found == nil
	})
	return found
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func joinSorted(set map[string]bool) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

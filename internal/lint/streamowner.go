package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// StreamOwner tracks every keyed randomness stream to its consumers and
// proves each has exactly one owning package — the property that makes
// the sharded pipeline's draws reproducible regardless of worker
// scheduling. Ownership is declared on the consuming function with the
// //adf:owns directive:
//
//	//adf:owns StreamXxx [StreamXxx...] [— why]
//
// where each StreamXxx is a sim.StreamID constant the function performs
// keyed draws on. Every keyed draw outside internal/sim must sit in a
// function claiming its stream, a claimed stream must actually be drawn
// (stale claims are flagged), and all of a stream's claimants must live
// in a single package: keyed draws are pure functions of (stream, id,
// tick), so the one remaining hazard is two subsystems keying the same
// stream with colliding ids — a hazard exactly when ownership spans
// packages. A draw the rule cannot attribute falls back to
// //adf:allow streamowner with a reason.
var StreamOwner = &Analyzer{
	Name: "streamowner",
	Doc:  "prove every keyed RNG stream has exactly one owning package, declared //adf:owns",
	Explain: `streamowner proves single-ownership of keyed randomness streams.

Annotation grammar (function doc comment):
    //adf:owns StreamXxx [StreamXxx...]   the function draws these keyed
                                          stream constants

Flagged: a keyed draw in a function that does not claim its stream, a
stream claimed in more than one package, and a claim naming a stream
the function never draws (stale).

Escape hatch: //adf:allow streamowner — reason.`,
	RunModule: runStreamOwner,
}

// ownsDirective declares stream ownership on the consuming function.
const ownsDirective = "//adf:owns"

// ownsSpec is one function's parsed //adf:owns claims.
type ownsSpec struct {
	pos     token.Pos
	streams []string // StreamXxx keyed-constant claims
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
			if strings.HasPrefix(tok, "Stream") {
				spec.streams = append(spec.streams, tok)
			} else {
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

func runStreamOwner(p *ModulePass) {
	var (
		claims  []ownsClaim
		specOf  = make(map[*ast.FuncDecl]*ownsSpec)
		keyed   []keyedDraw
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
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					m, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
					if !ok || m.Signature().Recv() == nil || !isKeyedRNG(m.Signature().Recv().Type()) ||
						simProvider || len(call.Args) == 0 {
						return true
					}
					name := streamConstName(pkg, call.Args[0])
					keyed = append(keyed, keyedDraw{pos: call.Pos(), stream: name, fn: fn})
					if name != "" {
						set := drawnIn[fn]
						if set == nil {
							set = make(map[string]bool)
							drawnIn[fn] = set
						}
						set[name] = true
					}
					return true
				})
			}
		}
	}

	// Malformed specs.
	for _, c := range claims {
		for _, tok := range c.spec.malformed {
			p.Reportf(c.spec.pos, "malformed //adf:owns resource %q on %s: want a StreamXxx constant", tok, fnName[c.fn])
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

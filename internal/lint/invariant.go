package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Invariant keeps the runtime sanitizer (internal/sanitize, build tag
// adfcheck) honest at the source level, in two parts:
//
//  1. Every call to a sanitize.Check* function outside the sanitize
//     package must be annotated //adf:invariant <name> — <why> on the
//     call line or the line directly above, so the guarded invariant is
//     named and greppable.
//  2. Every //adf:invariant annotation must actually cover such a call —
//     a stale annotation left behind after a refactor is an error.
//
// Both parts see only the files selected by the current tag set — which
// is why make lint runs the module twice, bare and with -tags adfcheck.
// Whether the adfcheck/!adfcheck file pairs declare the same names is
// the compiler's job: a name one half lacks fails go build (or
// go build -tags adfcheck) as soon as shared code calls it.
var Invariant = &Analyzer{
	Name: "invariant",
	Doc:  "keep //adf:invariant annotations and sanitize.Check* calls in one-to-one correspondence",
	Explain: `invariant keeps the adfcheck sanitizer honest.

Annotation grammar (statement-level comment):
    //adf:invariant <kebab-case-name> — <why>

Every //adf:invariant must sit directly on a sanitize.Check* call and
every sanitize.Check* call must carry one. A malformed name is flagged.
Files are selected by the current tag set, so run both tag passes.

Escape hatch: //adf:allow invariant — reason.`,
	Run: runInvariant,
}

// invariantPrefix introduces an annotation naming a guarded invariant.
const invariantPrefix = "//adf:invariant"

// invariantNameRe is the annotation grammar: a kebab-case name, then
// free text (conventionally "— why").
var invariantNameRe = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)

// sanitizePkgSuffix identifies the sanitizer package by import path.
const sanitizePkgSuffix = "internal/sanitize"

// invGroup is one //adf:invariant comment group and whether a
// sanitize.Check call was found under it.
type invGroup struct {
	pos  token.Pos
	name string
	used bool
}

// runInvariant enforces both parts: Check calls and annotations must
// cover each other exactly.
func runInvariant(p *Pass) {
	if strings.HasSuffix(p.Pkg.Path, sanitizePkgSuffix) {
		return
	}
	// index: file → line → annotation group covering that line. Coverage
	// is the group's lines plus the line after it, mirroring //adf:allow.
	index := make(map[string]map[int]*invGroup)
	var groups []*invGroup
	for _, f := range p.Pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, invariantPrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 || !invariantNameRe.MatchString(fields[0]) {
					p.Reportf(c.Pos(), "malformed %s annotation: want %s <kebab-case-name> — <why>", invariantPrefix, invariantPrefix)
					continue
				}
				g := &invGroup{pos: c.Pos(), name: fields[0]}
				groups = append(groups, g)
				start := p.Fset.Position(group.Pos())
				end := p.Fset.Position(group.End())
				lines := index[start.Filename]
				if lines == nil {
					lines = make(map[int]*invGroup)
					index[start.Filename] = lines
				}
				for line := start.Line; line <= end.Line+1; line++ {
					lines[line] = g
				}
			}
		}
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := p.ObjectOf(call.Fun)
			if obj == nil || obj.Pkg() == nil ||
				!strings.HasSuffix(obj.Pkg().Path(), sanitizePkgSuffix) ||
				!strings.HasPrefix(obj.Name(), "Check") {
				return true
			}
			pos := p.Fset.Position(call.Pos())
			if g := index[pos.Filename][pos.Line]; g != nil {
				g.used = true
				return true
			}
			p.Reportf(call.Pos(), "sanitize.%s call without an %s annotation: name the guarded invariant on the line above", obj.Name(), invariantPrefix)
			return true
		})
	}
	for _, g := range groups {
		if !g.used {
			p.Reportf(g.pos, "%s %s does not cover a sanitize.Check call: move it onto the check or delete it", invariantPrefix, g.name)
		}
	}
}

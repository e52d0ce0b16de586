// Package lint is a small static-analysis framework, built only on the
// standard library's go/ast, go/parser, go/types and go/token, that
// enforces the invariants no run of the code can catch: wall-clock and
// global-rand reads, map-order dependence, keyed-stream ownership, lock
// ordering, goroutine termination, enum exhaustiveness, float equality
// and obs gating. What a run does catch is left to the runs — shard
// isolation and lock discipline to the digest gates and the race
// detector, the zero-allocation tick to TestZeroAllocTick. Each check
// has exactly one owning rule. All() lists the rules; `adflint -list`
// prints their one-line summaries and `adflint -explain <rule>` the
// semantics and annotation grammar of one.
//
// False positives are silenced with an escape-hatch comment
//
//	//adf:allow <rule> [<rule>...] — reason
//
// placed on the offending line or on the line(s) immediately above it.
// The trailing reason is free text; everything after the rule names is
// ignored by the matcher, but please say why. The allowaudit rule flags
// a suppression that is stale, names no known rule, or gives no reason.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Rule is the name of the analyzer that reported the finding.
	Rule string
	// Message describes the violation and how to fix or silence it.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named rule.
type Analyzer struct {
	// Name is the rule name used in diagnostics and //adf:allow comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Explain is the long-form help behind `adflint -explain <rule>`:
	// the rule's semantics and its annotation grammar.
	Explain string
	// Run inspects one package and reports findings through the pass.
	// Nil for analyzers that only work module-wide.
	Run func(*Pass)
	// RunModule inspects the whole package set at once. Rules that need
	// cross-package context — goroleak's and lockorder's call-graph
	// walks, streamowner's one-package-per-stream check — live here.
	// Nil for purely intraprocedural analyzers.
	RunModule func(*ModulePass)
}

// Pass hands one analyzer the state of one package.
type Pass struct {
	// Fset translates token positions; shared by every loaded package.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package
	// Sim reports whether the package is one of the simulation packages
	// (maporder and floatcmp only apply there).
	Sim bool

	rule  string
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves the callee object behind a call or selector
// expression: for sel.Name it returns the used object of Name, for a
// plain identifier its use. It returns nil for anything else.
func (p *Pass) ObjectOf(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return p.Pkg.Info.Uses[e.Sel]
	case *ast.Ident:
		return p.Pkg.Info.Uses[e]
	case *ast.ParenExpr:
		return p.ObjectOf(e.X)
	}
	return nil
}

// ModulePass hands a module-wide analyzer the whole package set.
type ModulePass struct {
	// Fset translates token positions; shared by every loaded package.
	Fset *token.FileSet
	// Pkgs are all packages of the run, in import-path order.
	Pkgs []*Package

	rule            string
	concSuffixes    []string
	obsGateSuffixes []string
	diags           *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Concurrent reports whether an import path belongs to the concurrent
// (served/distributed) packages the goroleak rule covers.
func (p *ModulePass) Concurrent(path string) bool {
	return isSimPackage(path, p.concSuffixes)
}

// ObsGated reports whether an import path belongs to the
// obs-instrumented packages the obsgate rule covers.
func (p *ModulePass) ObsGated(path string) bool {
	return isSimPackage(path, p.obsGateSuffixes)
}

// SimPackages lists the import-path suffixes of the packages whose code
// mutates simulation state every tick. The maporder and floatcmp rules
// apply only here; the other rules apply module wide.
var SimPackages = []string{
	"internal/sim",
	"internal/engine",
	"internal/mobility",
	"internal/node",
	"internal/cluster",
	"internal/core",
	"internal/filter",
	"internal/broker",
	"internal/estimate",
	"internal/energy",
	"internal/gateway",
}

// ConcurrentPackages lists the import-path suffixes of the packages
// whose goroutines serve concurrent (non-simulation) work: the RTI
// transport, observability, the engine's worker pools, the campaign
// runner and the server binary. The goroleak rule applies here.
var ConcurrentPackages = []string{
	"internal/hla",
	"internal/obs",
	"internal/engine",
	"internal/experiment",
	"cmd/rtiserver",
}

// ObsGatePackages lists the import-path suffixes of the packages carrying
// obs instrumentation on their hot request paths. The obsgate rule
// (recording behind the enable gate) applies here.
var ObsGatePackages = []string{
	"internal/hla",
	"internal/wire",
}

// Config parameterises a lint run.
type Config struct {
	// Analyzers to run; nil means All().
	Analyzers []*Analyzer
	// SimPackages are import-path suffixes treated as simulation
	// packages; nil means the package-level SimPackages default.
	SimPackages []string
	// ConcurrentPackages are import-path suffixes the goroleak rule
	// covers; nil means the package-level ConcurrentPackages default.
	ConcurrentPackages []string
	// ObsGatePackages are import-path suffixes the obsgate rule covers;
	// nil means the package-level ObsGatePackages default.
	ObsGatePackages []string
}

// All returns the full analyzer set in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, MapOrder, Exhaustive, FloatCmp, StreamOwner, LockOrder, GoroLeak, ObsGate, AllowAudit}
}

// isSimPackage reports whether an import path names (or is nested under)
// one of the simulation packages. Every comparison is anchored on path
// segment boundaries: the suffix "internal/sim" matches
// "example.com/internal/sim" and "example.com/internal/sim/sub" but not
// "example.com/myinternal/sim/x", whose "internal" is a substring of a
// larger segment.
func isSimPackage(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) ||
			strings.HasPrefix(path, s+"/") || strings.Contains(path, "/"+s+"/") {
			return true
		}
	}
	return false
}

// Run applies the configured analyzers to the packages, drops findings
// silenced by //adf:allow comments and returns the rest sorted by
// position.
func Run(pkgs []*Package, cfg Config) []Diagnostic {
	analyzers := cfg.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	simSuffixes := cfg.SimPackages
	if simSuffixes == nil {
		simSuffixes = SimPackages
	}
	concSuffixes := cfg.ConcurrentPackages
	if concSuffixes == nil {
		concSuffixes = ConcurrentPackages
	}
	obsGateSuffixes := cfg.ObsGatePackages
	if obsGateSuffixes == nil {
		obsGateSuffixes = ObsGatePackages
	}
	if len(pkgs) == 0 {
		return nil
	}
	// The allowaudit pass judges every //adf:allow against the full raw
	// fact set: a suppression is only provably stale when the rule it
	// names actually ran. Selecting allowaudit therefore pulls in every
	// analyzer for fact generation; the findings are filtered back to
	// the requested rules at the end.
	requested := make(map[string]bool, len(analyzers))
	auditing := false
	for _, a := range analyzers {
		requested[a.Name] = true
		if a.Name == AllowAudit.Name {
			auditing = true
		}
	}
	if auditing {
		analyzers = All()
	}
	// One allow index for the whole run: a module-wide analyzer reports
	// findings in any package, so the //adf:allow filter must span all of
	// them.
	allows := newAllowSet()
	for _, pkg := range pkgs {
		allows.indexPackage(pkg)
	}
	var raw []Diagnostic
	for _, pkg := range pkgs {
		pass := &Pass{
			Fset:  pkg.Fset,
			Pkg:   pkg,
			Sim:   isSimPackage(pkg.Path, simSuffixes),
			diags: &raw,
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass.rule = a.Name
			a.Run(pass)
		}
	}
	mp := &ModulePass{
		Fset:            pkgs[0].Fset,
		Pkgs:            pkgs,
		concSuffixes:    concSuffixes,
		obsGateSuffixes: obsGateSuffixes,
		diags:           &raw,
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp.rule = a.Name
		a.RunModule(mp)
	}
	var diags []Diagnostic
	seen := make(map[Diagnostic]bool, len(raw))
	for _, d := range raw {
		if allows.allowedAt(d.Pos.Filename, d.Pos.Line, d.Rule) || seen[d] {
			continue
		}
		seen[d] = true
		diags = append(diags, d)
	}
	if auditing {
		// The audit runs after the filter so every suppression's usage
		// bits are final.
		ran := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		for _, d := range auditAllows(pkgs[0].Fset, allows, ran) {
			if !seen[d] {
				seen[d] = true
				diags = append(diags, d)
			}
		}
	}
	if len(requested) < len(analyzers) {
		kept := diags[:0]
		for _, d := range diags {
			if requested[d.Rule] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// allowPrefix introduces an escape-hatch comment. Like //go: directives it
// is written without a space after the slashes, so gofmt leaves it alone
// and godoc hides it.
const allowPrefix = "//adf:allow"

// allowEntry is one //adf:allow comment line: the rules it suppresses,
// the line span it covers (its comment group's lines plus the line
// after, so both trailing comments and own-line comments above the
// offending statement work), whether a free-text reason follows the
// rule list, and — per rule — whether the suppression did anything this
// run. The allowaudit pass reads the usage bits after filtering. An
// entry whose first token names no known rule has no rules and covers
// no line; the audit reports it.
type allowEntry struct {
	pos       token.Pos
	file      string
	startLine int
	// endLine is the last covered line (group end + 1), inclusive.
	endLine   int
	rules     []string
	hasReason bool
	used      map[string]bool
}

// allowSet indexes every //adf:allow comment of one run.
type allowSet struct {
	// lines maps file → covered line → the entries covering that line.
	// File names are absolute paths, hence globally unique.
	lines   map[string]map[int][]*allowEntry
	entries []*allowEntry
}

func newAllowSet() *allowSet {
	return &allowSet{lines: make(map[string]map[int][]*allowEntry)}
}

// indexPackage collects every //adf:allow comment in the package.
func (s *allowSet) indexPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			start := pkg.Fset.Position(group.Pos())
			end := pkg.Fset.Position(group.End())
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				fields := strings.Fields(rest)
				var rules []string
				// The rule list ends at the first token that is not a
				// known rule name; the rest is the free-text reason.
				for _, field := range fields {
					if !isRuleName(field) {
						break
					}
					rules = append(rules, field)
				}
				e := &allowEntry{
					pos:       c.Pos(),
					file:      start.Filename,
					startLine: start.Line,
					endLine:   end.Line + 1,
					rules:     rules,
					hasReason: hasReasonText(fields[len(rules):]),
					used:      make(map[string]bool),
				}
				s.entries = append(s.entries, e)
				if len(rules) == 0 {
					// A misspelled or retired rule name suppresses
					// nothing; the audit reports the entry.
					continue
				}
				file := s.lines[e.file]
				if file == nil {
					file = make(map[int][]*allowEntry)
					s.lines[e.file] = file
				}
				for line := e.startLine; line <= e.endLine; line++ {
					file[line] = append(file[line], e)
				}
			}
		}
	}
}

// hasReasonText reports whether the tokens after an allow's rule list
// amount to a reason: em-dash or hyphen separators alone do not count.
func hasReasonText(rest []string) bool {
	for _, tok := range rest {
		if tok != "—" && tok != "-" && tok != "--" {
			return true
		}
	}
	return false
}

// allowedAt reports whether an //adf:allow for rule covers the line,
// marking the matching entries used.
func (s *allowSet) allowedAt(file string, line int, rule string) bool {
	ok := false
	for _, e := range s.lines[file][line] {
		for _, r := range e.rules {
			if r == rule {
				e.used[rule] = true
				ok = true
			}
		}
	}
	return ok
}

// ruleNames mirrors the Name fields of All(). A static copy rather than
// a loop over All() because the analyzers' Run functions reference the
// allow machinery, which references this — going through All() would be
// an initialization cycle. TestRuleNamesMatchAll keeps the two in sync.
var ruleNames = []string{"determinism", "maporder", "exhaustive", "floatcmp", "streamowner", "lockorder", "goroleak", "obsgate", "allowaudit"}

func isRuleName(s string) bool {
	for _, n := range ruleNames {
		if s == n {
			return true
		}
	}
	return false
}

// stmtLists yields every statement list in the file: function and block
// bodies plus case and select clauses. maporder needs the list context to
// look at the statement following a range loop.
func stmtLists(f *ast.File, visit func([]ast.Stmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			visit(n.List)
		case *ast.CaseClause:
			visit(n.Body)
		case *ast.CommClause:
			visit(n.Body)
		}
		return true
	})
}

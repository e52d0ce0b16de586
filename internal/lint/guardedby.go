package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// GuardedBy proves the locking discipline declared on struct fields. A
// field annotated
//
//	//adf:guardedby <mu>
//
// names the mutex that must be held across every read and write of the
// field. <mu> is either a sibling field of the same struct (`mu`, or
// `Mutex` for an embedded sync.Mutex) or, for state guarded by another
// struct's lock, a `Type.field` pair resolved in the same package
// (federateState's fields are guarded by `Federation.mu`). The guard
// must be a sync.Mutex or sync.RWMutex.
//
// An access is proven safe when its enclosing function acquires the
// guard (a Lock or RLock call anywhere in the body — the syntactic
// Lock/defer-Unlock shape) or is statically reachable, through the
// module call graph, from a function that does; "callers must hold
// fed.mu" helpers are covered by the reachability half. Composite-
// literal keys are construction, not shared access, and are exempt, as
// is package-level initialization. The proof is function-granular and
// so over-approximates holding: a helper reachable from both locked and
// unlocked paths is not flagged — the rule catches fields with no
// locking story, not every unlocked path.
//
// Independently of annotations, a field passed by address to a
// sync/atomic function and also read or written plainly is flagged at
// the plain sites: mixed atomic/plain access is a data race no
// annotation can bless. Use a typed atomic (atomic.Uint64) or take the
// lock everywhere.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "enforce //adf:guardedby <mu> field annotations: every access holds the named mutex (directly or via a lock-holding caller), and no field mixes sync/atomic with plain access",
	Explain: `//adf:guardedby <mu> on a struct field declares the mutex guarding it.

Annotation grammar (field doc or trailing comment):
    //adf:guardedby mu              sibling field of the same struct
    //adf:guardedby Mutex           embedded sync.Mutex
    //adf:guardedby Federation.mu   field of another same-package struct

The guard must resolve to a sync.Mutex or sync.RWMutex. Every read or
write of the annotated field must then sit in a function that acquires
the guard (Lock or RLock, the usual Lock/defer-Unlock shape) or in a
callee statically reachable from such a function — the call-graph walk
covers "callers must hold mu" helpers. Composite-literal keys and
package-level var initializers are construction and exempt.

Additionally, any struct field passed as &x.f to a sync/atomic function
and also accessed plainly is flagged at the plain sites: convert the
field to a typed atomic (atomic.Uint64, atomic.Bool) or take the lock
on every access.

Escape hatch: //adf:allow guardedby — reason.`,
	RunModule: runGuardedBy,
}

// guardedByDirective annotates a struct field with its guarding mutex.
const guardedByDirective = "//adf:guardedby"

// guardSpec is one annotated field: the field variable, its resolved
// guard, and display names for diagnostics.
type guardSpec struct {
	field     *types.Var
	guard     *types.Var
	fieldName string // Struct.field
	guardName string // Struct.mu or Type.field as written
}

func runGuardedBy(p *ModulePass) {
	index := buildFuncIndex(p)
	specs, guards := collectGuards(p)

	// Acquire sets: which guard mutexes each declared function locks
	// (Lock/RLock anywhere in the body, closures included — the
	// function-granular over-approximation documented above).
	acquires := make(map[*ast.FuncDecl]map[*types.Var]bool)
	adjacency := make(map[*ast.FuncDecl][]*ast.FuncDecl)
	declOf := make(map[*ast.FuncDecl]funcDeclInfo)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				declOf[fn] = funcDeclInfo{fn: fn, pkg: pkg}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if ev, ok := mutexCallEvent(pkg, call); ok && ev.acquire && guards[ev.mu] {
						set := acquires[fn]
						if set == nil {
							set = make(map[*types.Var]bool)
							acquires[fn] = set
						}
						set[ev.mu] = true
					}
					if callee := staticCallee(pkg, call); callee != nil {
						if d, ok := index[callee]; ok {
							adjacency[fn] = append(adjacency[fn], d.fn)
						}
					}
					return true
				})
			}
		}
	}

	// Propagate "may hold" from each acquirer over the static call
	// graph: a callee reachable from a lock-holding function is treated
	// as running under the lock.
	holds := make(map[*ast.FuncDecl]map[*types.Var]bool)
	for fn, set := range acquires {
		for mu := range set {
			propagateHold(fn, mu, adjacency, holds)
		}
	}

	// Access check: every selector use of an annotated field must sit
	// in a function holding (or reachable from a holder of) its guard.
	specOf := make(map[*types.Var]*guardSpec, len(specs))
	for i := range specs {
		specOf[specs[i].field] = &specs[i]
	}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					v, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
					if !ok {
						return true
					}
					spec, ok := specOf[v]
					if !ok {
						return true
					}
					if holds[fn][spec.guard] {
						return true
					}
					p.Reportf(sel.Sel.Pos(), "access to %s (//adf:guardedby %s) in %s, which neither acquires %s nor is reachable from a function that does: take the lock, or //adf:allow guardedby with a reason", spec.fieldName, spec.guardName, funcDisplayName(fn), spec.guardName)
					return true
				})
			}
		}
	}

	checkMixedAtomic(p)
}

// propagateHold marks fn and every statically reachable callee as
// holding mu.
func propagateHold(fn *ast.FuncDecl, mu *types.Var, adjacency map[*ast.FuncDecl][]*ast.FuncDecl, holds map[*ast.FuncDecl]map[*types.Var]bool) {
	if holds[fn][mu] {
		return
	}
	set := holds[fn]
	if set == nil {
		set = make(map[*types.Var]bool)
		holds[fn] = set
	}
	set[mu] = true
	for _, callee := range adjacency[fn] {
		propagateHold(callee, mu, adjacency, holds)
	}
}

// collectGuards parses every //adf:guardedby annotation in the run and
// resolves the guard expressions, reporting unresolvable or non-mutex
// guards. The returned set holds every mutex variable used as a guard.
func collectGuards(p *ModulePass) ([]guardSpec, map[*types.Var]bool) {
	var specs []guardSpec
	guards := make(map[*types.Var]bool)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				structType, _ := pkg.Info.TypeOf(st).(*types.Struct)
				for _, field := range st.Fields.List {
					arg, pos, ok := directiveArg(field.Doc, guardedByDirective)
					if !ok {
						arg, pos, ok = directiveArg(field.Comment, guardedByDirective)
					}
					if !ok {
						continue
					}
					if arg == "" {
						p.Reportf(pos, "//adf:guardedby without a mutex name: write //adf:guardedby <field> or //adf:guardedby <Type>.<field>")
						continue
					}
					guard := resolveGuard(p, pkg, structType, arg, pos)
					if guard == nil {
						continue
					}
					guards[guard] = true
					for _, name := range field.Names {
						v, ok := pkg.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						specs = append(specs, guardSpec{
							field:     v,
							guard:     guard,
							fieldName: structDisplayName(pkg, st) + "." + v.Name(),
							guardName: arg,
						})
					}
				}
				return true
			})
		}
	}
	return specs, guards
}

// resolveGuard resolves a guardedby argument — `mu`, `Mutex`, or
// `Type.field` — to the mutex field variable, reporting failures.
func resolveGuard(p *ModulePass, pkg *Package, structType *types.Struct, arg string, pos token.Pos) *types.Var {
	var guard *types.Var
	if typeName, fieldName, qualified := strings.Cut(arg, "."); qualified {
		obj, _ := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
		if obj == nil {
			p.Reportf(pos, "//adf:guardedby %s: no type %s in package %s", arg, typeName, pkg.Types.Name())
			return nil
		}
		target, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			p.Reportf(pos, "//adf:guardedby %s: %s is not a struct type", arg, typeName)
			return nil
		}
		guard = structFieldByName(target, fieldName)
	} else if structType != nil {
		guard = structFieldByName(structType, arg)
	}
	if guard == nil {
		p.Reportf(pos, "//adf:guardedby %s: no such field — the guard must be a sibling field or a same-package Type.field", arg)
		return nil
	}
	if !isMutexType(guard.Type()) {
		p.Reportf(pos, "//adf:guardedby %s: guard is %s, not a sync.Mutex or sync.RWMutex", arg, guard.Type())
		return nil
	}
	return guard
}

// checkMixedAtomic flags fields accessed both through sync/atomic
// functions (by address) and plainly, at the plain sites.
func checkMixedAtomic(p *ModulePass) {
	type access struct {
		pos  token.Pos
		name string
	}
	atomicArgs := make(map[token.Pos]bool) // positions of &x.f atomic arguments
	atomicOf := make(map[*types.Var]bool)
	plainOf := make(map[*types.Var][]access)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, argExpr := range call.Args {
					u, ok := ast.Unparen(argExpr).(*ast.UnaryExpr)
					if !ok || u.Op != token.AND {
						continue
					}
					if v := fieldVarOf(pkg, u.X); v != nil {
						atomicOf[v] = true
						if s, ok := ast.Unparen(u.X).(*ast.SelectorExpr); ok {
							atomicArgs[s.Sel.Pos()] = true
						}
					}
				}
				return true
			})
		}
	}
	if len(atomicOf) == 0 {
		return
	}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					v, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
					if !ok || !atomicOf[v] || atomicArgs[sel.Sel.Pos()] {
						return true
					}
					plainOf[v] = append(plainOf[v], access{pos: sel.Sel.Pos(), name: v.Name()})
					return true
				})
			}
		}
	}
	var flagged []access
	for v, accesses := range plainOf {
		_ = v
		flagged = append(flagged, accesses...)
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].pos < flagged[j].pos })
	for _, a := range flagged {
		p.Reportf(a.pos, "field %s is updated through sync/atomic elsewhere but accessed plainly here — a data race: use a typed atomic (atomic.Uint64, atomic.Bool) or guard every access with the same mutex", a.name)
	}
}

// directiveArg returns the first token following the directive in a
// comment group, its position, and whether the directive is present.
func directiveArg(g *ast.CommentGroup, directive string) (string, token.Pos, bool) {
	if g == nil {
		return "", token.NoPos, false
	}
	for _, c := range g.List {
		rest, ok := strings.CutPrefix(c.Text, directive)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return "", c.Pos(), true
		}
		return fields[0], c.Pos(), true
	}
	return "", token.NoPos, false
}

// structFieldByName finds a direct field (embedded names included) of a
// struct type.
func structFieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// structDisplayName names the struct a field annotation sits on: the
// declared type name when the StructType is a named declaration, or the
// holding variable's name for anonymous struct vars (`var cache = struct{…}`).
func structDisplayName(pkg *Package, st *ast.StructType) string {
	t, _ := pkg.Info.TypeOf(st).(*types.Struct)
	if t == nil {
		return "struct"
	}
	// A named type's underlying struct: find the TypeName whose
	// underlying is this exact *types.Struct instance.
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if tn.Type().Underlying() == t {
				return tn.Name()
			}
		}
		if v, ok := scope.Lookup(name).(*types.Var); ok {
			if v.Type() == t {
				return v.Name()
			}
		}
	}
	return "struct"
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockEvent is one classified mutex method call.
type lockEvent struct {
	mu      *types.Var // the mutex field or package-level variable
	name    string     // Type.field display identity
	acquire bool       // Lock/RLock (true) vs Unlock/RUnlock (false)
	pos     token.Pos
}

// mutexCallEvent classifies a call as a Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex and resolves the mutex to a trackable
// variable: a struct field (promoted embedded mutexes included, via the
// selection's field-index path) or a package-level variable. Mutexes
// held in locals are not tracked.
func mutexCallEvent(pkg *Package, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockEvent{}, false
	}
	var acquire bool
	switch fn.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return lockEvent{}, false
	}
	recv := fn.Signature().Recv()
	if recv == nil || !isMutexType(recv.Type()) {
		return lockEvent{}, false
	}
	mu, name := mutexVarOf(pkg, sel)
	if mu == nil {
		return lockEvent{}, false
	}
	return lockEvent{mu: mu, name: name, acquire: acquire, pos: call.Pos()}, true
}

// mutexVarOf resolves the mutex behind a Lock/Unlock method selector:
// the selected field for x.mu.Lock(), the embedded field reached by the
// selection's index path for promoted calls (cache.Lock()), or
// a package-level mutex variable.
func mutexVarOf(pkg *Package, sel *ast.SelectorExpr) (*types.Var, string) {
	if s, ok := pkg.Info.Selections[sel]; ok && len(s.Index()) > 1 {
		// Promoted method: walk the embedded-field prefix of the index
		// path; the last field reached is the mutex.
		t := pkg.Info.TypeOf(sel.X)
		idx := s.Index()
		var f *types.Var
		for _, i := range idx[:len(idx)-1] {
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok || i >= st.NumFields() {
				return nil, ""
			}
			f = st.Field(i)
			t = f.Type()
		}
		if f == nil {
			return nil, ""
		}
		return f, lockBaseName(pkg, sel.X) + "." + f.Name()
	}
	if v := fieldVarOf(pkg, sel.X); v != nil {
		return v, lockBaseName(pkg, sel.X) + "." + v.Name()
	}
	if v := rootVar(pkg.Info, sel.X); v != nil && isPkgLevelVar(v) {
		return v, v.Pkg().Name() + "." + v.Name()
	}
	return nil, ""
}

// lockBaseName names the structure holding a mutex for diagnostics: the
// named type of the expression the mutex is selected from, falling back
// to a package-level variable's name (anonymous struct vars) or the
// expression text.
func lockBaseName(pkg *Package, x ast.Expr) string {
	x = ast.Unparen(x)
	if sel, ok := x.(*ast.SelectorExpr); ok {
		if t := namedOf(pkg.Info.TypeOf(sel.X)); t != nil {
			return t.Obj().Name()
		}
	}
	if t := namedOf(pkg.Info.TypeOf(x)); t != nil {
		return t.Obj().Name()
	}
	if v := rootVar(pkg.Info, x); v != nil {
		return v.Name()
	}
	return types.ExprString(x)
}

// namedOf unwraps pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

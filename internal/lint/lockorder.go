package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition graph and flags
// cycles — the static shadow of a deadlock. Lock identity is the
// struct type plus field (Federation.mu, connWriter.mu) or a
// package-level mutex variable; mutexes held in locals are not tracked.
//
// Each function body is simulated linearly in source order: a Lock or
// RLock pushes the mutex onto the held set, a direct Unlock/RUnlock
// releases it, and a deferred Unlock keeps it held to the end of the
// body (the Lock/defer-Unlock idiom). Acquiring B while holding A adds
// the edge A -> B with the acquiring function as witness. Function
// literals are separate contexts: a closure's locks are simulated
// against an empty held set, not the enclosing function's.
//
// The analysis is interprocedural: every function gets a transitive
// "acquires somewhere" summary over the static call graph, and a call
// made while holding locks adds edges from each held lock to each lock
// the callee may take — f holding fed.mu calling mailbox.push yields
// Federation.mu -> mailbox.mu without push ever naming its caller.
//
// Findings: a cycle in the graph is reported once, with the full
// witness chain (which function takes which edge); acquiring a mutex
// already held — directly or via a callee — is reported as a
// self-deadlock.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "build the module-wide lock-acquisition graph (lock = struct type + field) and flag ordering cycles and re-entrant acquisitions with witness chains",
	Explain: `lockorder needs no annotations: it derives the lock-acquisition
graph from the code. Lock identity is struct type + field
(Federation.mu) or a package-level mutex variable.

Within each function, acquisitions are simulated in source order;
defer mu.Unlock() keeps the mutex held to the end of the body, and
closures are separate contexts. Acquiring B while holding A adds the
edge A -> B; calls are followed through the static call graph, so a
callee's acquisitions count against the caller's held set.

Flagged: any cycle among the edges (reported once, with one witness
function per edge) and any acquisition of a mutex the function already
holds (self-deadlock), directly or via a call chain.

Fix by acquiring mutexes in one global order, or narrowing critical
sections so nested acquisition disappears. Escape hatch:
//adf:allow lockorder — reason.`,
	RunModule: runLockOrder,
}

// lockPair keys the deduplicated acquisition graph.
type lockPair struct{ from, to *types.Var }

// lockEdge is one lock-order fact: to was acquired while from was held.
type lockEdge struct {
	from, to         *types.Var
	fromName, toName string
	fn               string // witness function
	pos              token.Pos
}

func runLockOrder(p *ModulePass) {
	index := buildFuncIndex(p)

	// Pass 1: per-function lock summaries — every mutex the function
	// (or a closure in it) may acquire — and the call-graph adjacency.
	type fnFacts struct {
		acquires  map[*types.Var]string // mutex -> display name
		callees   []*types.Func
		reentrant []lockEvent // second acquisition of a held mutex
	}
	facts := make(map[*types.Func]*fnFacts)
	nameOf := make(map[*types.Var]string)
	var edges []lockEdge
	var orderedFns []*types.Func
	fnDisplay := make(map[*types.Func]string)

	// callWhileHeld records calls made with a non-empty held set, for
	// the interprocedural pass once summaries are complete.
	type heldCall struct {
		caller *types.Func
		callee *types.Func
		held   []*types.Var
		pos    token.Pos
	}
	var heldCalls []heldCall

	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				orderedFns = append(orderedFns, obj)
				fnDisplay[obj] = funcDisplayName(fn)
				ff := &fnFacts{acquires: make(map[*types.Var]string)}
				facts[obj] = ff

				// Simulate the outer body and every closure body as
				// separate linear contexts.
				bodies := [][2]ast.Node{{fn.Body, nil}}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						bodies = append(bodies, [2]ast.Node{lit.Body, lit})
					}
					return true
				})
				for _, body := range bodies {
					var held []*types.Var
					simulateLocks(pkg, body[0], func(ev lockEvent) {
						nameOf[ev.mu] = ev.name
						if ev.acquire {
							ff.acquires[ev.mu] = ev.name
							for _, h := range held {
								if h == ev.mu {
									ff.reentrant = append(ff.reentrant, ev)
									return
								}
								edges = append(edges, lockEdge{from: h, to: ev.mu, fromName: nameOf[h], toName: ev.name, fn: fnDisplay[obj], pos: ev.pos})
							}
							held = append(held, ev.mu)
							return
						}
						for i := len(held) - 1; i >= 0; i-- {
							if held[i] == ev.mu {
								held = append(held[:i], held[i+1:]...)
								break
							}
						}
					}, func(call *ast.CallExpr) {
						callee := staticCallee(pkg, call)
						if callee == nil {
							return
						}
						if _, ok := index[callee]; !ok {
							return
						}
						ff.callees = append(ff.callees, callee)
						if len(held) > 0 {
							heldCalls = append(heldCalls, heldCall{caller: obj, callee: callee, held: append([]*types.Var(nil), held...), pos: call.Pos()})
						}
					})
				}
			}
		}
	}

	// Pass 2: transitive acquire summaries.
	memo := make(map[*types.Func]map[*types.Var]string)
	var transAcquires func(fn *types.Func, visiting map[*types.Func]bool) map[*types.Var]string
	transAcquires = func(fn *types.Func, visiting map[*types.Func]bool) map[*types.Var]string {
		if m, ok := memo[fn]; ok {
			return m
		}
		if visiting[fn] {
			return nil
		}
		visiting[fn] = true
		out := make(map[*types.Var]string)
		if ff := facts[fn]; ff != nil {
			for mu, name := range ff.acquires {
				out[mu] = name
			}
			for _, callee := range ff.callees {
				for mu, name := range transAcquires(callee, visiting) {
					out[mu] = name
				}
			}
		}
		delete(visiting, fn)
		memo[fn] = out
		return out
	}

	for _, hc := range heldCalls {
		sub := transAcquires(hc.callee, make(map[*types.Func]bool))
		// Deterministic edge order: sort the callee's lock set by name.
		locks := make([]*types.Var, 0, len(sub))
		for mu := range sub {
			locks = append(locks, mu)
		}
		sort.Slice(locks, func(i, j int) bool { return sub[locks[i]] < sub[locks[j]] })
		for _, mu := range locks {
			for _, h := range hc.held {
				if h == mu {
					p.Reportf(hc.pos, "call to %s in %s acquires %s, which the caller already holds — a self-deadlock: release the mutex before the call, or hoist the locked work out of the callee", fnDisplay[hc.callee], fnDisplay[hc.caller], sub[mu])
					continue
				}
				edges = append(edges, lockEdge{from: h, to: mu, fromName: nameOf[h], toName: sub[mu], fn: fnDisplay[hc.caller] + " -> " + fnDisplay[hc.callee], pos: hc.pos})
			}
		}
	}

	// Direct re-entrant acquisitions.
	for _, fn := range orderedFns {
		for _, ev := range facts[fn].reentrant {
			p.Reportf(ev.pos, "mutex %s acquired in %s while already held — a self-deadlock: release it first, or split the critical section", ev.name, fnDisplay[fn])
		}
	}

	reportLockCycles(p, edges)
}

// simulateLocks walks one body (skipping nested closures and defers) in
// source order, classifying mutex calls through onLock and other calls
// through onCall. A deferred Unlock is skipped — the mutex stays held
// to the end of the body, matching the Lock/defer-Unlock idiom.
func simulateLocks(pkg *Package, body ast.Node, onLock func(lockEvent), onCall func(*ast.CallExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate context
		case *ast.DeferStmt:
			return false // runs at exit: deferred Unlock keeps the lock held
		case *ast.CallExpr:
			if ev, ok := mutexCallEvent(pkg, n); ok {
				onLock(ev)
				return true
			}
			onCall(n)
		}
		return true
	})
}

// reportLockCycles finds cycles in the acquisition graph and reports
// each once, at its first witness, with the full chain.
func reportLockCycles(p *ModulePass, edges []lockEdge) {
	// Dedupe edges by (from, to), keeping the first witness; index
	// adjacency by display name for deterministic traversal.
	first := make(map[lockPair]lockEdge)
	adjacency := make(map[*types.Var][]*types.Var)
	byName := make(map[string]*types.Var)
	for _, e := range edges {
		k := lockPair{e.from, e.to}
		if _, ok := first[k]; ok {
			continue
		}
		first[k] = e
		adjacency[e.from] = append(adjacency[e.from], e.to)
		byName[e.fromName] = e.from
		byName[e.toName] = e.to
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	rank := make(map[*types.Var]int, len(names))
	for i, name := range names {
		rank[byName[name]] = i
	}
	for _, nbrs := range adjacency {
		sort.Slice(nbrs, func(i, j int) bool { return rank[nbrs[i]] < rank[nbrs[j]] })
	}

	seen := make(map[string]bool)
	var path []*types.Var
	onPath := make(map[*types.Var]int)
	var dfs func(start, node *types.Var)
	dfs = func(start, node *types.Var) {
		onPath[node] = len(path)
		path = append(path, node)
		for _, next := range adjacency[node] {
			if rank[next] < rank[start] {
				continue // each cycle is found from its lowest-ranked lock
			}
			if next == start {
				reportCycle(p, append(append([]*types.Var(nil), path...), start), first, seen)
				continue
			}
			if _, ok := onPath[next]; ok {
				continue
			}
			dfs(start, next)
		}
		path = path[:len(path)-1]
		delete(onPath, node)
	}
	for _, name := range names {
		start := byName[name]
		dfs(start, start)
	}
}

// reportCycle renders one cycle (path[0] == path[len-1]) with its edge
// witnesses, deduping rotations via the canonical name sequence.
func reportCycle(p *ModulePass, cycle []*types.Var, first map[lockPair]lockEdge, seen map[string]bool) {
	edgeOf := func(i int) lockEdge { return first[lockPair{cycle[i], cycle[i+1]}] }
	names := make([]string, len(cycle))
	for i := range cycle {
		names[i] = edgeName(cycle, first, i)
	}
	id := strings.Join(names, " -> ")
	if seen[id] {
		return
	}
	seen[id] = true
	var steps []string
	for i := 0; i+1 < len(cycle); i++ {
		e := edgeOf(i)
		steps = append(steps, e.toName+" (in "+e.fn+")")
	}
	p.Reportf(edgeOf(0).pos, "lock-order cycle: %s -> %s — two goroutines taking these paths deadlock: acquire the mutexes in one global order", names[0], strings.Join(steps, " -> "))
}

// edgeName resolves a lock's display name from any edge touching it.
func edgeName(cycle []*types.Var, first map[lockPair]lockEdge, i int) string {
	if i+1 < len(cycle) {
		return first[lockPair{cycle[i], cycle[i+1]}].fromName
	}
	return first[lockPair{cycle[i-1], cycle[i]}].toName
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

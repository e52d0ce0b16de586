package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NetCtx enforces deadline and shutdown discipline on the network
// packages (internal/hla, the TCP RTI):
//
//   - every net.Conn read — a direct conn.Read or a module-local call
//     whose name contains "Read" taking the conn as an argument
//     (wire.ReadFrame) — must be dominated by a SetReadDeadline or
//     SetDeadline call on the same connection earlier in the function;
//     writes likewise need SetWriteDeadline or SetDeadline. A zero
//     deadline (time.Time{}) is an explicit "block forever" and
//     satisfies the rule: the point is that the policy is visible and
//     configurable at the I/O site, not implicit.
//   - a bufio.Reader or bufio.Writer built over a conn (held in a local
//     or a struct field) carries the conn's I/O: reads, writes and
//     Flush through the wrapper need the wrapped conn's deadline, while
//     the bufio constructors themselves do no I/O and are not checked.
//   - a blocking channel send inside a loop (an accept or handler loop
//     pumping work to another goroutine) must be a select case, so a
//     stuck receiver cannot wedge the loop: bare `ch <- v` inside any
//     for/range body is flagged unless it is a select communication.
//
// Dominance is positional (the deadline call textually precedes the
// I/O in the same function), which matches the loop idiom: the
// deadline refresh at the top of each read-loop iteration precedes the
// read.
var NetCtx = &Analyzer{
	Name: "netctx",
	Doc:  "net.Conn reads/writes in the network packages need a dominating Set(Read|Write)Deadline on the same conn, and loop-borne channel sends must be shutdown-selectable",
	Explain: `netctx applies to the network packages (internal/hla).

Reads: conn.Read(...) or helper calls named *Read* taking a net.Conn
argument (wire.ReadFrame(conn)) must be preceded, in the same function,
by conn.SetReadDeadline(...) or conn.SetDeadline(...) on the same
connection variable. Writes need SetWriteDeadline or SetDeadline.
Passing a zero time.Time is an explicit unbounded wait and satisfies
the rule — the deadline policy must be visible, not necessarily finite.

Buffered wrappers: r := bufio.NewReader(conn) or a struct field set to
bufio.NewWriterSize(conn, n) is not I/O itself, but every read, write or
Flush through the wrapper — a method call (w.bw.Flush()) or a *Read* /
*Write* helper taking it (wire.ReadFrame(c.r)) — is I/O on the wrapped
conn and needs that conn's deadline. A field wrapper built from a local
conn that the same function stores into a conn field resolves to that
field, so c.conn.SetReadDeadline dominates reads through c.r.

Sends: a bare channel send (ch <- v) inside a for or range body is
flagged unless it is a select communication clause: accept/handler
loops must stay responsive to shutdown even when a receiver stalls.

Escape hatch: //adf:allow netctx — reason.`,
	RunModule: runNetCtx,
}

func runNetCtx(p *ModulePass) {
	for _, pkg := range p.Pkgs {
		if !p.Net(pkg.Path) {
			continue
		}
		wrappers := connWrappers(pkg)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkConnDeadlines(p, pkg, fn, wrappers)
				checkLoopSends(p, pkg, fn)
			}
		}
	}
}

// connIO is one network read or write site within a function.
type connIO struct {
	pos   token.Pos
	conn  *types.Var
	write bool
	what  string
}

// deadlineCall is one SetDeadline/SetReadDeadline/SetWriteDeadline.
type deadlineCall struct {
	pos   token.Pos
	conn  *types.Var
	read  bool // satisfies reads
	write bool // satisfies writes
}

// checkConnDeadlines flags conn I/O without a textually preceding
// deadline call on the same connection variable.
func checkConnDeadlines(p *ModulePass, pkg *Package, fn *ast.FuncDecl, wrappers map[*types.Var]connWrapper) {
	var ios []connIO
	var deadlines []deadlineCall
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			// A method of a buffered wrapper: I/O on the conn it wraps
			// unless the method only inspects the buffer.
			if v := connVarOf(pkg, sel.X); v != nil {
				if w, ok := wrappers[v]; ok {
					if !bufioNoIO[sel.Sel.Name] {
						ios = append(ios, connIO{pos: call.Pos(), conn: w.conn, write: w.write, what: v.Name() + "." + sel.Sel.Name})
					}
					return true
				}
			}
			if isNetConnType(pkg.Info.TypeOf(sel.X)) {
				switch sel.Sel.Name {
				case "SetDeadline":
					if v := connVarOf(pkg, sel.X); v != nil {
						deadlines = append(deadlines, deadlineCall{pos: call.Pos(), conn: v, read: true, write: true})
					}
					return true
				case "SetReadDeadline":
					if v := connVarOf(pkg, sel.X); v != nil {
						deadlines = append(deadlines, deadlineCall{pos: call.Pos(), conn: v, read: true})
					}
					return true
				case "SetWriteDeadline":
					if v := connVarOf(pkg, sel.X); v != nil {
						deadlines = append(deadlines, deadlineCall{pos: call.Pos(), conn: v, write: true})
					}
					return true
				case "Read", "Write":
					if v := connVarOf(pkg, sel.X); v != nil {
						ios = append(ios, connIO{pos: call.Pos(), conn: v, write: sel.Sel.Name == "Write", what: "conn." + sel.Sel.Name})
					}
					return true
				}
			}
		}
		// Helper call taking a net.Conn argument: ReadFrame(conn),
		// WriteFrame(conn, payload). Classified by the callee's name.
		callee := staticCallee(pkg, call)
		if callee == nil || isBufioWrapperCtor(callee) {
			return true
		}
		isRead := strings.Contains(callee.Name(), "Read")
		isWrite := strings.Contains(callee.Name(), "Write")
		if !isRead && !isWrite {
			return true
		}
		// Through a buffered wrapper argument the direction is the
		// wrapper's: a bufio.Reader only reads its conn.
		for _, arg := range call.Args {
			v := connVarOf(pkg, arg)
			if w, ok := wrappers[v]; ok {
				ios = append(ios, connIO{pos: call.Pos(), conn: w.conn, write: w.write, what: callee.Name()})
				break
			}
			if !isNetConnType(pkg.Info.TypeOf(arg)) {
				continue
			}
			if v != nil {
				ios = append(ios, connIO{pos: call.Pos(), conn: v, write: isWrite, what: callee.Name()})
			}
			break
		}
		return true
	})
	for _, io := range ios {
		dominated := false
		for _, d := range deadlines {
			if d.conn != io.conn || d.pos >= io.pos {
				continue
			}
			if (io.write && d.write) || (!io.write && d.read) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		kind, set := "read", "SetReadDeadline"
		if io.write {
			kind, set = "write", "SetWriteDeadline"
		}
		p.Reportf(io.pos, "%s %s on a net.Conn without a dominating deadline in %s: call %s (or SetDeadline) on the connection first — a zero time.Time makes an unbounded wait explicit — or //adf:allow netctx with a reason", io.what, kind, funcDisplayName(fn), set)
	}
}

// connWrapper is a bufio.Reader or bufio.Writer built over a conn.
type connWrapper struct {
	conn  *types.Var // the wrapped conn: a local, a parameter or a field
	write bool       // a bufio.Writer: its I/O writes the conn
}

// bufioNoIO names the bufio.Reader/Writer methods that only inspect or
// reset the buffer; every other method may reach the wrapped conn.
var bufioNoIO = map[string]bool{
	"Available": true, "AvailableBuffer": true, "Buffered": true,
	"Reset": true, "Size": true, "UnreadByte": true, "UnreadRune": true,
}

// isBufioWrapperCtor reports whether fn is one of bufio's
// NewReader/NewReaderSize/NewWriter/NewWriterSize constructors.
func isBufioWrapperCtor(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "bufio" {
		return false
	}
	switch fn.Name() {
	case "NewReader", "NewReaderSize", "NewWriter", "NewWriterSize":
		return true
	}
	return false
}

// connWrappers finds every buffered wrapper pkg builds over a conn and
// the variable it is stored in: a local (r := bufio.NewReader(conn)), a
// field assignment (c.r = ...) or a keyed composite-literal field
// (&T{r: ...}). A field wrapper over a local conn resolves to the conn
// field the same local is stored into, since that field is what other
// methods set deadlines on.
func connWrappers(pkg *Package) map[*types.Var]connWrapper {
	wrappers := make(map[*types.Var]connWrapper)
	stored := make(map[*types.Var]*types.Var) // local conn -> conn field holding it
	wrapped := func(e ast.Expr) (connWrapper, bool) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || !isNetConnType(pkg.Info.TypeOf(call.Args[0])) {
			return connWrapper{}, false
		}
		fn := staticCallee(pkg, call)
		if fn == nil || !isBufioWrapperCtor(fn) {
			return connWrapper{}, false
		}
		conn := connVarOf(pkg, call.Args[0])
		return connWrapper{conn: conn, write: strings.HasPrefix(fn.Name(), "NewWriter")}, conn != nil
	}
	bind := func(dst *types.Var, val ast.Expr) {
		if dst == nil {
			return
		}
		if w, ok := wrapped(val); ok {
			wrappers[dst] = w
			return
		}
		if id, ok := ast.Unparen(val).(*ast.Ident); ok && dst.IsField() && isNetConnType(dst.Type()) {
			if src, ok := pkg.Info.Uses[id].(*types.Var); ok && !src.IsField() {
				stored[src] = dst
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						bind(connVarOf(pkg, lhs), n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, name := range n.Names {
						v, _ := pkg.Info.Defs[name].(*types.Var)
						bind(v, n.Values[i])
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					if v, ok := pkg.Info.Uses[key].(*types.Var); ok && v.IsField() {
						bind(v, n.Value)
					}
				}
			}
			return true
		})
	}
	for v, w := range wrappers {
		if field, ok := stored[w.conn]; ok && v.IsField() {
			w.conn = field
			wrappers[v] = w
		}
	}
	return wrappers
}

// connVarOf resolves a connection expression to its variable: the
// selected field (w.conn) or the root parameter/local.
func connVarOf(pkg *Package, x ast.Expr) *types.Var {
	if v := fieldVarOf(pkg, x); v != nil {
		return v
	}
	return rootVar(pkg.Info, x)
}

// isNetConnType reports whether t is a net connection: the net.Conn
// interface or one of net's concrete *Conn types.
func isNetConnType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net" && strings.HasSuffix(obj.Name(), "Conn")
}

// checkLoopSends flags blocking channel sends inside loop bodies that
// are not select communications.
func checkLoopSends(p *ModulePass, pkg *Package, fn *ast.FuncDecl) {
	// Select communications are exempt by construction.
	comm := make(map[ast.Stmt]bool)
	var loops []*ast.BlockStmt
	var sends []*ast.SendStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
					comm[cc.Comm] = true
				}
			}
		case *ast.ForStmt:
			loops = append(loops, n.Body)
		case *ast.RangeStmt:
			loops = append(loops, n.Body)
		case *ast.SendStmt:
			sends = append(sends, n)
		}
		return true
	})
	for _, s := range sends {
		if comm[s] {
			continue
		}
		inLoop := false
		for _, body := range loops {
			if body.Pos() <= s.Pos() && s.End() <= body.End() {
				inLoop = true
				break
			}
		}
		if !inLoop {
			continue
		}
		p.Reportf(s.Pos(), "blocking channel send inside a loop in %s: a stalled receiver wedges the handler loop — make the send a select case with a shutdown (or default) alternative, or //adf:allow netctx with a reason", funcDisplayName(fn))
	}
}

// Package retirepin is the static form of the PR 3 quiescent-retire panic:
// a raw scheme-level Retire (ReclaimerHandle.Retire) issued from a quiescent
// context races the epoch advance — the retirer's observed epoch can go
// arbitrarily stale before its record lands in a limbo bag, so an advance
// winner may free the bag while the retirer still files into it. The runtime
// contract makes the epoch schemes panic on an unpinned Retire; this
// analyzer proves the absence of the panic at build time by requiring every
// raw retire call site to be dominated by LeaveQstate or PinRetire on all
// paths from the enclosing function's entry.
//
// The auto-pinning wrapper — core.ThreadHandle.Retire — takes the pin itself
// when the thread is quiescent and is therefore exempt: calling through it
// is the recommended fix for any diagnostic this analyzer reports. The
// dominance walk is structural (statement order, if/else joins, loops that
// may run zero times), not a full SSA pass: calls reached through function
// literals inherit the pin state at their creation point, deferred and
// spawned calls are analysed as unpinned, and an EnterQstate or UnpinRetire
// kills the dominating pin.
package retirepin

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer flags raw scheme retires not dominated by a pin.
var Analyzer = &analysis.Analyzer{
	Name: "retirepin",
	Doc:  "raw scheme Retire must be dominated by LeaveQstate or PinRetire (quiescent-retire contract)",
	Run:  run,
}

// retireNames are the flagged entry points into a scheme's retire path.
var retireNames = map[string]bool{"Retire": true}

// pinNames establish an active announcement; unpinNames withdraw it.
var (
	pinNames   = map[string]bool{"LeaveQstate": true, "PinRetire": true}
	unpinNames = map[string]bool{"EnterQstate": true, "UnpinRetire": true}
)

// autoPinRecv is the receiver type whose Retire pins internally (the wrapper
// data structures are supposed to use).
var autoPinRecv = map[string]bool{"ThreadHandle": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if forwarding(pass, fd) {
				continue
			}
			w := &walker{pass: pass}
			w.stmts(fd.Body.List, false)
		}
	}
	return nil
}

// forwarding reports whether fd is itself a retire-path entry point of the
// reclamation stack (the fault plane's handle.Retire forwarding to the
// scheme's, ThreadHandle.Retire, ...). Raw
// retire calls inside such a function are forwarding edges: the pin
// obligation belongs to the function's own callers, which the analyzer
// checks at their sites — the same obligation-transfer reasoning handlepair
// applies to escaping handles.
func forwarding(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if !retireNames[fd.Name.Name] {
		return false
	}
	p := pass.Pkg.Path()
	return analysis.PathHasSuffix(p, "internal/core") ||
		analysis.PathContains(p, "internal/reclaim") ||
		analysis.PathContains(p, "internal/faultinject")
}

// inStack reports whether the called function belongs to the reclamation
// stack (core's interfaces and helpers, or a concrete scheme package).
func inStack(pass *analysis.Pass, call *ast.CallExpr) (fn string, recv string, ok bool) {
	f := analysis.CalleeOf(pass.Info, call)
	if f == nil {
		return "", "", false
	}
	p := analysis.FuncPkgPath(f)
	if !analysis.PathHasSuffix(p, "internal/core") && !analysis.PathContains(p, "internal/reclaim") &&
		!analysis.PathContains(p, "internal/faultinject") {
		return "", "", false
	}
	return f.Name(), analysis.RecvTypeName(f), true
}

// walker performs the structural dominance walk. pinned means "every path
// from the function entry to here passed a pin that has not been withdrawn".
type walker struct {
	pass *analysis.Pass
}

// stmts walks a statement list with the given entry pin state and returns
// the exit state.
func (w *walker) stmts(list []ast.Stmt, pinned bool) bool {
	for _, s := range list {
		pinned = w.stmt(s, pinned)
	}
	return pinned
}

func (w *walker) stmt(s ast.Stmt, pinned bool) bool {
	switch s := s.(type) {
	case nil:
		return pinned
	case *ast.BlockStmt:
		return w.stmts(s.List, pinned)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, pinned)
	case *ast.IfStmt:
		pinned = w.stmt(s.Init, pinned)
		pinned = w.expr(s.Cond, pinned)
		thenOut := w.stmts(s.Body.List, pinned)
		if analysis.Terminates(s.Body.List) {
			thenOut = true // vacuous: control never joins from this arm
		}
		elseOut := pinned
		if s.Else != nil {
			elseOut = w.stmt(s.Else, pinned)
			if b, ok := s.Else.(*ast.BlockStmt); ok && analysis.Terminates(b.List) {
				elseOut = true
			}
		}
		return thenOut && elseOut
	case *ast.ForStmt:
		pinned = w.stmt(s.Init, pinned)
		pinned = w.expr(s.Cond, pinned)
		bodyOut := w.stmts(s.Body.List, pinned)
		w.stmt(s.Post, bodyOut)
		return pinned && bodyOut // the body may run zero times
	case *ast.RangeStmt:
		pinned = w.expr(s.X, pinned)
		bodyOut := w.stmts(s.Body.List, pinned)
		return pinned && bodyOut
	case *ast.SwitchStmt:
		pinned = w.stmt(s.Init, pinned)
		pinned = w.expr(s.Tag, pinned)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, pinned)
			}
		}
		return pinned // conservative: pins inside cases do not dominate the join
	case *ast.TypeSwitchStmt:
		pinned = w.stmt(s.Init, pinned)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, pinned)
			}
		}
		return pinned
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, pinned)
			}
		}
		return pinned
	case *ast.DeferStmt:
		// A deferred call runs at function exit, where the pin state is
		// unknowable; analyse it as unpinned. Crucially a deferred unpin
		// (defer UnpinRetire) must not clear the current state.
		w.checkCalls(s.Call, false)
		return pinned
	case *ast.GoStmt:
		// A spawned goroutine starts with no announcement of its own.
		w.checkCalls(s.Call, false)
		return pinned
	default:
		// Expression-bearing statements: assignments, expression statements,
		// returns, sends, declarations.
		var exprs []ast.Expr
		switch s := s.(type) {
		case *ast.ExprStmt:
			exprs = []ast.Expr{s.X}
		case *ast.AssignStmt:
			exprs = append(append([]ast.Expr{}, s.Rhs...), s.Lhs...)
		case *ast.ReturnStmt:
			exprs = s.Results
		case *ast.SendStmt:
			exprs = []ast.Expr{s.Chan, s.Value}
		case *ast.IncDecStmt:
			exprs = []ast.Expr{s.X}
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						exprs = append(exprs, vs.Values...)
					}
				}
			}
		}
		for _, e := range exprs {
			pinned = w.expr(e, pinned)
		}
		return pinned
	}
}

// expr walks an expression in evaluation (position) order, checking flagged
// calls against the current state and applying pin/unpin transitions.
// Function literals are analysed with the state at their creation point (the
// synchronous-callback assumption: Drain(func(rec){...}) runs under the
// caller's pin).
func (w *walker) expr(e ast.Expr, pinned bool) bool {
	if e == nil {
		return pinned
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, pinned)
			return false
		case *ast.CallExpr:
			// Arguments evaluate before the call; Inspect's preorder visits
			// the call first, so apply the call's own effect after returning
			// from children. Handled by checking in checkCall via post-order
			// emulation: recurse manually.
			pinned = w.call(n, pinned)
			return false
		}
		return true
	})
	return pinned
}

// call processes one call expression: arguments first (evaluation order),
// then the call itself.
func (w *walker) call(c *ast.CallExpr, pinned bool) bool {
	pinned = w.expr(c.Fun, pinned)
	for _, a := range c.Args {
		pinned = w.expr(a, pinned)
	}
	name, recv, ok := inStack(w.pass, c)
	if !ok {
		return pinned
	}
	switch {
	case pinNames[name]:
		return true
	case unpinNames[name]:
		return false
	case retireNames[name] && !autoPinRecv[recv]:
		if !pinned {
			target := name
			if recv != "" {
				target = recv + "." + name
			}
			w.pass.Report(c.Pos(),
				"raw %s is not dominated by LeaveQstate/PinRetire: a quiescent retirer races the epoch advance (PR 3); pin first or go through the auto-pinning ThreadHandle wrappers", target)
		}
	}
	return pinned
}

// checkCalls analyses a call (and everything it contains) under a fixed pin
// state without returning a state transition — used for defer/go statements.
func (w *walker) checkCalls(c *ast.CallExpr, pinned bool) {
	w.call(c, pinned)
}

// Package protectorder proves the hazard-pointer calling convention in the
// data-structure packages (internal/ds/...): an announcement protects a
// record only if the record is still reachable when the announcement becomes
// visible, so a pointer loaded from the structure and then Protected must be
// re-validated (a fresh load compared against the held pointer) before it is
// dereferenced — otherwise the record may have been retired between the load
// and the announcement and the traversal reads freed memory (the
// retired-to-retired window the paper concedes for HP-incompatible
// operations). Symmetrically, once a pointer is Unprotected the thread holds
// no announcement for it and must not dereference it again.
//
// Two checks, both per function and structural:
//
//  1. protect-then-validate: after recv.Protect(p), some comparison
//     mentioning p (the re-validation load, e.g. src.Load() != p) must
//     appear before the first dereference of p (p.field, p.method()). A
//     structure that links records by index rather than by pointer
//     resolves p from a word, p = resolve(w) with w a plain identifier of
//     integer type, and validates the word: there a comparison mentioning
//     w (src.Load() != w) counts for p;
//  2. no use after Unprotect: after recv.Unprotect(p), p must not be
//     dereferenced until it is reassigned or re-Protected. The taint is
//     control-flow aware: an Unprotect followed by return/continue/break
//     does not poison the code after the enclosing branch.
//
// Epoch-scheme traversal paths (no Protect at all) are out of scope — the
// schemes' grace periods cover them; this analyzer polices only the
// per-record protection idiom.
package protectorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"repro/internal/analysis"
)

// Analyzer enforces protect-validate-dereference ordering in DS code.
var Analyzer = &analysis.Analyzer{
	Name: "protectorder",
	Doc:  "a Protected pointer must be re-validated before dereference; an Unprotected pointer must not be dereferenced",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathContains(pass.Pkg.Path(), "internal/ds") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkValidation(pass, fd.Body)
			w := &unprotWalker{pass: pass}
			w.stmts(fd.Body.List, map[*types.Var]token.Pos{})
		}
	}
	return nil
}

// protCall matches recv.<name>(v) where the method belongs to the
// reclamation stack and v is a plain identifier, returning v's object.
func protCall(pass *analysis.Pass, call *ast.CallExpr, name string) (*types.Var, bool) {
	f := analysis.CalleeOf(pass.Info, call)
	if f == nil || f.Name() != name || len(call.Args) != 1 {
		return nil, false
	}
	p := analysis.FuncPkgPath(f)
	if !analysis.PathHasSuffix(p, "internal/core") && !analysis.PathContains(p, "internal/reclaim") {
		return nil, false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, _ := pass.Info.Uses[id].(*types.Var)
	return v, v != nil
}

// event is one lexical occurrence relevant to the validation check.
type event struct {
	pos  token.Pos
	kind int // eProtect, eCompare, eDeref, eAssign
	v    *types.Var
}

const (
	eProtect = iota
	eCompare
	eDeref
	eAssign
)

// wordSources maps each pointer variable assigned from a call on a plain
// integer-typed identifier (p := resolve(w), p = resolve(w), or p, s =
// resolve(s, w) for a resolver that also returns state to keep) to those
// words: the index-addressed form of "the pointer was loaded from src",
// under which comparing a fresh load of src against w re-validates p.
// Flow-insensitive, like the event scan it feeds.
func wordSources(pass *analysis.Pass, body *ast.BlockStmt) map[*types.Var][]*types.Var {
	src := map[*types.Var][]*types.Var{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		var words []*types.Var
		for _, arg := range call.Args {
			aid, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			w, _ := pass.Info.Uses[aid].(*types.Var)
			if w == nil {
				continue
			}
			if b, ok := types.Unalias(w.Type()).Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				words = append(words, w)
			}
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			p, _ := pass.Info.Defs[id].(*types.Var)
			if p == nil {
				p, _ = pass.Info.Uses[id].(*types.Var)
			}
			if p != nil && isPointerish(p.Type()) {
				src[p] = append(src[p], words...)
			}
		}
		return true
	})
	return src
}

// checkValidation implements check 1 with a lexical event scan: for every
// Protect(v), look forward for the first dereference of v; if no comparison
// mentioning v or a word v was resolved from intervenes (and v is not
// reassigned first), the dereference trusts an unvalidated announcement.
func checkValidation(pass *analysis.Pass, body *ast.BlockStmt) {
	sources := wordSources(pass, body)
	var events []event
	protects := map[token.Pos]*ast.CallExpr{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if v, ok := protCall(pass, n, "Protect"); ok {
				events = append(events, event{n.Pos(), eProtect, v})
				protects[n.Pos()] = n
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				for _, side := range []ast.Expr{n.X, n.Y} {
					if id, ok := ast.Unparen(side).(*ast.Ident); ok {
						if v, ok := pass.Info.Uses[id].(*types.Var); ok {
							events = append(events, event{n.Pos(), eCompare, v})
						}
					}
				}
			}
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if v, ok := pass.Info.Uses[id].(*types.Var); ok && isPointerish(v.Type()) {
					events = append(events, event{n.X.Pos(), eDeref, v})
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v, ok := pass.Info.Uses[id].(*types.Var); ok {
						events = append(events, event{n.Pos(), eAssign, v})
					} else if v, ok := pass.Info.Defs[id].(*types.Var); ok {
						events = append(events, event{n.Pos(), eAssign, v})
					}
				}
			}
		}
		return true
	})
	// Events arrive in preorder, which tracks lexical position closely
	// enough; sort by position to make it exact.
	sortEvents(events)
	for i, e := range events {
		if e.kind != eProtect {
			continue
		}
		validated := false
		for _, later := range events[i+1:] {
			if later.kind == eCompare && slices.Contains(sources[e.v], later.v) {
				break // validated through the word e.v was resolved from
			}
			if later.v != e.v {
				continue
			}
			switch later.kind {
			case eCompare:
				validated = true
			case eAssign, eProtect:
				// Tracking epoch ends: reassigned or re-announced.
				validated = true
			case eDeref:
				if !validated {
					pass.Report(protects[e.pos].Pos(),
						"%s is dereferenced at line %d without re-validation after Protect: compare a fresh load against the protected pointer before trusting it (the record may have been retired before the announcement became visible)",
						e.v.Name(), pass.Fset.Position(later.pos).Line)
				}
				validated = true // one report per protect
			}
			if validated {
				break
			}
		}
	}
}

// sortEvents orders events by position (insertion sort; event lists are
// small and nearly sorted).
func sortEvents(ev []event) {
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j].pos < ev[j-1].pos; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
}

// isPointerish reports whether t can be dereferenced (pointer to struct —
// the record pointers the check cares about).
func isPointerish(t types.Type) bool {
	_, ok := types.Unalias(t).Underlying().(*types.Pointer)
	return ok
}

// unprotWalker implements check 2: a control-flow-aware taint walk. taint
// maps a variable to the position of the Unprotect that poisoned it.
type unprotWalker struct {
	pass *analysis.Pass
}

// stmts walks a statement list, mutating taint in place; a terminating
// branch's taint never merges back (callers pass copies into branches).
func (w *unprotWalker) stmts(list []ast.Stmt, taint map[*types.Var]token.Pos) {
	for _, s := range list {
		w.stmt(s, taint)
	}
}

func (w *unprotWalker) stmt(s ast.Stmt, taint map[*types.Var]token.Pos) {
	switch s := s.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		w.stmts(s.List, taint)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, taint)
	case *ast.IfStmt:
		w.stmt(s.Init, taint)
		w.expr(s.Cond, taint)
		thenTaint := copyTaint(taint)
		w.stmts(s.Body.List, thenTaint)
		elseTaint := copyTaint(taint)
		if s.Else != nil {
			w.stmt(s.Else, elseTaint)
		}
		// Merge the fall-through arms back into the parent flow.
		if !analysis.Terminates(s.Body.List) {
			mergeTaint(taint, thenTaint)
		}
		if s.Else != nil {
			terminates := false
			if b, ok := s.Else.(*ast.BlockStmt); ok {
				terminates = analysis.Terminates(b.List)
			}
			if !terminates {
				mergeTaint(taint, elseTaint)
			}
		}
	case *ast.ForStmt:
		w.stmt(s.Init, taint)
		w.expr(s.Cond, taint)
		bodyTaint := copyTaint(taint)
		w.stmts(s.Body.List, bodyTaint)
		w.stmt(s.Post, bodyTaint)
		mergeTaint(taint, bodyTaint)
	case *ast.RangeStmt:
		w.expr(s.X, taint)
		bodyTaint := copyTaint(taint)
		w.stmts(s.Body.List, bodyTaint)
		mergeTaint(taint, bodyTaint)
	case *ast.SwitchStmt:
		w.stmt(s.Init, taint)
		w.expr(s.Tag, taint)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ct := copyTaint(taint)
				w.stmts(cc.Body, ct)
				if !analysis.Terminates(cc.Body) {
					mergeTaint(taint, ct)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, taint)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ct := copyTaint(taint)
				w.stmts(cc.Body, ct)
				if !analysis.Terminates(cc.Body) {
					mergeTaint(taint, ct)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				ct := copyTaint(taint)
				w.stmts(cc.Body, ct)
				if !analysis.Terminates(cc.Body) {
					mergeTaint(taint, ct)
				}
			}
		}
	case *ast.DeferStmt:
		w.expr(s.Call, copyTaint(taint))
	case *ast.GoStmt:
		w.expr(s.Call, copyTaint(taint))
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, taint)
		}
		for _, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if v, ok := passVar(w.pass, id); ok {
					delete(taint, v) // reassignment clears the taint
				}
			} else {
				w.expr(lhs, taint)
			}
		}
	case *ast.ExprStmt:
		w.expr(s.X, taint)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, taint)
		}
	case *ast.SendStmt:
		w.expr(s.Chan, taint)
		w.expr(s.Value, taint)
	case *ast.IncDecStmt:
		w.expr(s.X, taint)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, taint)
					}
				}
			}
		}
	}
}

// expr scans an expression: Unprotect(v) taints v, Protect(v) clears it, a
// dereference of a tainted v is reported.
func (w *unprotWalker) expr(e ast.Expr, taint map[*types.Var]token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, copyTaint(taint))
			return false
		case *ast.CallExpr:
			if v, ok := protCall(w.pass, n, "Unprotect"); ok {
				taint[v] = n.Pos()
				return false
			}
			if v, ok := protCall(w.pass, n, "Protect"); ok {
				delete(taint, v)
				return false
			}
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if v, ok := passVar(w.pass, id); ok {
					if unprotPos, tainted := taint[v]; tainted {
						w.pass.Report(n.Pos(),
							"%s is dereferenced after Unprotect (line %d): the thread no longer holds an announcement for it; re-Protect (and validate) or stop using the pointer",
							v.Name(), w.pass.Fset.Position(unprotPos).Line)
						delete(taint, v) // one report per taint
					}
				}
			}
		}
		return true
	})
}

// passVar resolves an identifier to its variable object.
func passVar(pass *analysis.Pass, id *ast.Ident) (*types.Var, bool) {
	if v, ok := pass.Info.Uses[id].(*types.Var); ok {
		return v, true
	}
	if v, ok := pass.Info.Defs[id].(*types.Var); ok {
		return v, true
	}
	return nil, false
}

func copyTaint(t map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	c := make(map[*types.Var]token.Pos, len(t))
	for k, v := range t {
		c[k] = v
	}
	return c
}

// mergeTaint unions src into dst (a variable tainted on any fall-through
// path is tainted after the join).
func mergeTaint(dst, src map[*types.Var]token.Pos) {
	for k, v := range src {
		dst[k] = v
	}
}

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Helpers shared by the passes. Package identity is matched by path *suffix*
// (PathHasSuffix / PathContains) rather than the literal module path, so the
// analyzers recognise both the real packages ("repro/internal/core") and the
// analysistest golden module's stubs ("vettest/internal/core") — the same
// trick x/tools analyzers use for their testdata GOPATHs.

// PathHasSuffix reports whether pkgPath is suffix or ends in "/"+suffix.
func PathHasSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// PathContains reports whether pkgPath contains sub as a path segment
// sequence (e.g. "internal/reclaim/" to match every scheme package).
func PathContains(pkgPath, sub string) bool {
	return strings.Contains(pkgPath+"/", "/"+strings.Trim(sub, "/")+"/")
}

// CalleeOf resolves the function or method a call expression invokes, or nil
// when the callee is not a named function (conversions, function values,
// built-ins).
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// FuncPkgPath returns the import path of the package declaring f ("" for
// builtins/universe).
func FuncPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// NamedOf unwraps t to its origin *types.Named, looking through pointers and
// aliases; nil when t has no named core.
func NamedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// Terminates reports whether the statement list definitely transfers control
// away (return, branch, panic, or an if with two terminating arms) — a
// syntactic approximation, precise enough for the structural dominance walks.
func Terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return stmtTerminates(list[len(list)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return Terminates(s.List)
	case *ast.IfStmt:
		if s.Else == nil {
			return false
		}
		return Terminates(s.Body.List) && stmtTerminates(s.Else)
	case *ast.LabeledStmt:
		return stmtTerminates(s.Stmt)
	}
	return false
}

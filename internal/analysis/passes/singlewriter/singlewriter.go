// Package singlewriter is the typed replacement for the old
// internal/core/hotpathguard_test.go grep guard (PR 4): per-thread
// statistics counters in the Record Manager stack must be single-writer
// core.Counter cells, never sync/atomic values — an atomic Add is a
// LOCK-prefixed read-modify-write paid several times per data-structure
// operation, and the per-thread stat carriers are written only by their
// owning tid (with a happens-before edge to any quiescent drainer), so the
// RMW buys nothing.
//
// Two rules, both scoped to the known per-thread carrier structs (thread,
// threadStats, poolThread, bumpThread, heapThread) in the hot-path packages
// (internal/{core,pool,arena}, internal/reclaim/..., internal/ds/...):
//
//  1. declaration: a field named like a stat counter (retired, freed,
//     scans, ...) must not be declared with a sync/atomic type;
//  2. use: no atomic read-modify-write — neither the method forms
//     (Add/Swap/CompareAndSwap/...) nor the function forms
//     (atomic.AddInt64(&t.field, ...)) — may target a stat field of a
//     carrier struct.
//
// Multi-writer synchronisation words (epoch announcements, occupancy
// summaries, shared-stack heads, neutralization state) are not stat
// counters: their fields are outside the guarded name set and stay
// legitimately atomic.
package singlewriter

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer enforces the single-writer core.Counter discipline.
var Analyzer = &analysis.Analyzer{
	Name: "singlewriter",
	Doc:  "per-thread stat counters must be core.Counter cells; no atomic RMW may target a per-thread carrier's stat field",
	Run:  run,
}

// carrierNames are the per-thread state structs the discipline covers.
var carrierNames = map[string]bool{
	"thread": true, "threadStats": true, "poolThread": true,
	"bumpThread": true, "heapThread": true,
}

// statNames are the per-thread statistics fields (the old guard's name set).
var statNames = map[string]bool{
	"retired": true, "freed": true, "scans": true, "epochAdvances": true,
	"grace": true, "neutralizations": true, "selfNeutralized": true,
	"reused": true, "fromAllocator": true, "toShared": true,
	"fromShared": true, "allocated": true, "deallocated": true,
	"slabs": true, "restarts": true, "unlinks": true, "resizes": true,
	"dummies": true, "helps": true, "recov": true,
}

// rmwMethods are the read-modify-write methods of the sync/atomic types.
var rmwMethods = map[string]bool{
	"Add": true, "Swap": true, "CompareAndSwap": true, "Or": true, "And": true,
}

// rmwFuncs are the function-form RMWs of package sync/atomic.
var rmwFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true,
	"AddUintptr": true, "SwapInt32": true, "SwapInt64": true,
	"SwapUint32": true, "SwapUint64": true, "SwapUintptr": true,
	"SwapPointer": true, "CompareAndSwapInt32": true,
	"CompareAndSwapInt64": true, "CompareAndSwapUint32": true,
	"CompareAndSwapUint64": true, "CompareAndSwapUintptr": true,
	"CompareAndSwapPointer": true, "OrInt32": true, "OrInt64": true,
	"OrUint32": true, "OrUint64": true, "AndInt32": true, "AndInt64": true,
	"AndUint32": true, "AndUint64": true,
}

// inScope reports whether the package is part of the guarded hot-path stack.
func inScope(pkgPath string) bool {
	return analysis.PathHasSuffix(pkgPath, "internal/core") ||
		analysis.PathHasSuffix(pkgPath, "internal/pool") ||
		analysis.PathHasSuffix(pkgPath, "internal/arena") ||
		analysis.PathContains(pkgPath, "internal/reclaim") ||
		analysis.PathContains(pkgPath, "internal/ds")
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				checkDecl(pass, n)
			case *ast.CallExpr:
				checkCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDecl applies rule 1 to a carrier struct declaration.
func checkDecl(pass *analysis.Pass, ts *ast.TypeSpec) {
	if !carrierNames[ts.Name.Name] {
		return
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		t := pass.Info.Types[field.Type].Type
		if t == nil || !isAtomicType(t) {
			continue
		}
		for _, name := range field.Names {
			if statNames[name.Name] {
				pass.Report(name.Pos(),
					"per-thread stat counter %s.%s declared as %s: use core.Counter (single-writer cell; an atomic RMW is a LOCK-prefixed hot-path tax)",
					ts.Name.Name, name.Name, types.TypeString(t, nil))
			}
		}
	}
}

// checkCall applies rule 2 to method- and function-form RMWs.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Function form: atomic.AddInt64(&carrier.field, ...).
	if f := analysis.CalleeOf(pass.Info, call); f != nil &&
		analysis.FuncPkgPath(f) == "sync/atomic" && rmwFuncs[f.Name()] && len(call.Args) > 0 {
		if carrier, field, ok := carrierStatField(pass, addrTarget(call.Args[0])); ok {
			pass.Report(call.Pos(),
				"atomic.%s targets per-thread stat field %s.%s: single-writer core.Counter cells only (no RMW on the hot path)",
				f.Name(), carrier, field)
		}
		return
	}
	// Method form: carrier.field.Add(...).
	if !rmwMethods[sel.Sel.Name] {
		return
	}
	recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if m := analysis.CalleeOf(pass.Info, call); m == nil || analysis.FuncPkgPath(m) != "sync/atomic" {
		return
	}
	if carrier, field, ok := carrierStatField(pass, recv); ok {
		pass.Report(call.Pos(),
			"%s.%s.%s is an atomic RMW on a per-thread stat field: use core.Counter (single-writer cell)",
			carrier, field, sel.Sel.Name)
	}
}

// addrTarget unwraps &expr to expr (the usual atomic function-form idiom).
func addrTarget(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok {
		return u.X
	}
	return ast.Unparen(e)
}

// carrierStatField decides whether e selects a guarded stat field of a
// carrier struct, returning the carrier and field names.
func carrierStatField(pass *analysis.Pass, e ast.Expr) (carrier, field string, ok bool) {
	sel, isSel := ast.Unparen(e).(*ast.SelectorExpr)
	if !isSel || !statNames[sel.Sel.Name] {
		return "", "", false
	}
	t := pass.Info.Types[sel.X].Type
	if t == nil {
		return "", "", false
	}
	n := analysis.NamedOf(t)
	if n == nil || !carrierNames[n.Obj().Name()] {
		return "", "", false
	}
	return n.Obj().Name(), sel.Sel.Name, true
}

// isAtomicType reports whether t (or its element) is a sync/atomic type.
func isAtomicType(t types.Type) bool {
	n := analysis.NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync/atomic"
}

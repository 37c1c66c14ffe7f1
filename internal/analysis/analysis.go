// Package analysis is a self-contained, dependency-free skeleton of the
// golang.org/x/tools/go/analysis API: analyzers receive a type-checked
// package (a Pass) and report position-anchored diagnostics. It exists
// because the repository's safety rests on calling conventions the compiler
// cannot see — the quiescent-release slot contract, hazard-pointer
// protect-before-dereference, the single-writer core.Counter discipline —
// and those contracts deserve a build-time proof, not just runtime panics
// and -race stress. The module vendors no third-party
// code, so the framework (loader, driver, golden-test runner) is implemented
// here on the standard library alone: packages are loaded by shelling out to
// `go list -export` and type-checked against the build cache's export data.
//
// The analyzers themselves live in internal/analysis/passes/...; the
// multichecker binary is cmd/reclaimvet; the golden packages used by the
// analysistest runner form a standalone module under testdata/ (so deliberate
// contract violations never enter the main build).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name (the //lint:allow key and the
// diagnostic prefix), a one-paragraph contract statement, and the Run
// function applied to every loaded package unit.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow markers.
	// It must be a single lower-case word.
	Name string
	// Doc states the contract the analyzer proves, first line short.
	Doc string
	// Run inspects one package unit and reports findings via Pass.Report.
	// The returned error aborts the whole run (loader-level trouble, not a
	// finding); contract violations are diagnostics, never errors.
	Run func(*Pass) error
}

// Pass carries one type-checked package unit through an analyzer. A unit is
// either a package's base sources, its in-package test augmentation, or its
// external _test package (see Loader); ReportFiles narrows diagnostics to the
// unit's own files so overlapping units never double-report.
type Pass struct {
	// Analyzer is the analyzer this pass runs.
	Analyzer *Analyzer
	// Fset resolves token positions for every file in the unit.
	Fset *token.FileSet
	// Files are the unit's parsed sources (including, for test units, the
	// base files the tests augment).
	Files []*ast.File
	// Pkg is the unit's type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info
	// report receives diagnostics (wired by the driver; applies the
	// //lint:allow filter and the ReportFiles narrowing).
	report func(Diagnostic)
}

// Report emits a diagnostic at pos. Diagnostics suppressed by a reasoned
// //lint:allow marker are dropped by the driver; everything else fails the
// build.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. The analyzer name is
// attached by the driver.
type Diagnostic struct {
	// Pos anchors the finding.
	Pos token.Pos
	// Message states the violated contract and the fix.
	Message string
	// Analyzer is the reporting analyzer's name (filled by the driver).
	Analyzer string
}

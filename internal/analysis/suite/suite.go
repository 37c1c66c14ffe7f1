// Package suite assembles the repository's full analyzer set — the four
// reclamation-contract checks cmd/reclaimvet runs as one multichecker. The
// set is defined here (not in the command) so tests and future drivers share
// a single source of truth for which contracts are statically enforced.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/passes/exporteddoc"
	"repro/internal/analysis/passes/handlepair"
	"repro/internal/analysis/passes/protectorder"
	"repro/internal/analysis/passes/singlewriter"
)

// All returns the full analyzer suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		handlepair.Analyzer,
		singlewriter.Analyzer,
		protectorder.Analyzer,
		exporteddoc.Analyzer,
	}
}

// Known reports whether name is an analyzer in the suite (used to validate
// //lint:allow markers).
func Known(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

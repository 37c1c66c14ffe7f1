package handlepair_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/handlepair"
)

// TestHandlePair checks the seeded slot-lifecycle violations (leaks,
// discarded results, defer-in-loop starvation, escapes, method-value and
// receiver-form releases) and the //lint:allow hygiene golden (bare marker,
// missing reason, unknown analyzer, stale marker).
func TestHandlePair(t *testing.T) {
	analysistest.Run(t, analysistest.Dir(), handlepair.Analyzer, "./handlepair/...")
}

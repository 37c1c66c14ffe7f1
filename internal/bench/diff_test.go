package bench

import (
	"strings"
	"testing"
)

func mkRow(title, scheme string, threads, shards, batch int, mops float64) JSONRow {
	return JSONRow{Title: title, Scheme: scheme, Threads: threads,
		Shards: shards, RetireBatch: batch, MopsPerSec: mops}
}

func mkReport(rows ...JSONRow) JSONReport {
	return JSONReport{Rows: rows, RowCount: len(rows)}
}

// mustDiff fails the test on a degenerate comparison; most cases construct
// well-formed report pairs.
func mustDiff(t *testing.T, base, cur JSONReport, opts DiffOptions) DiffResult {
	t.Helper()
	res, err := DiffReports(base, cur, opts)
	if err != nil {
		t.Fatalf("DiffReports: %v", err)
	}
	return res
}

func TestDiffNoRegressionOnUniformSlowdown(t *testing.T) {
	// A CI machine half the speed of the baseline machine: every cell's
	// ratio moves together, the median normalisation cancels it.
	base := mkReport(
		mkRow("p", "debra", 1, 0, 0, 10),
		mkRow("p", "debra", 2, 0, 0, 20),
		mkRow("p", "hp", 1, 0, 0, 6),
		mkRow("p", "hp", 2, 0, 0, 8),
	)
	cur := mkReport(
		mkRow("p", "debra", 1, 0, 0, 5),
		mkRow("p", "debra", 2, 0, 0, 10),
		mkRow("p", "hp", 1, 0, 0, 3),
		mkRow("p", "hp", 2, 0, 0, 4),
	)
	res := mustDiff(t, base, cur, DefaultDiffOptions())
	if res.Compared != 4 {
		t.Fatalf("Compared = %d want 4", res.Compared)
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("uniform slowdown flagged as regression: %+v", res.Regressions)
	}
}

func TestDiffFlagsRelativeRegression(t *testing.T) {
	base := mkReport(
		mkRow("p", "debra", 1, 0, 0, 10),
		mkRow("p", "debra", 2, 0, 0, 20),
		mkRow("p", "ebr", 1, 0, 0, 10),
		mkRow("p", "hp", 1, 0, 0, 6),
		mkRow("p", "hp", 2, 0, 0, 8),
	)
	// ebr/1 collapses to a third while everything else holds.
	cur := mkReport(
		mkRow("p", "debra", 1, 0, 0, 10),
		mkRow("p", "debra", 2, 0, 0, 20),
		mkRow("p", "ebr", 1, 0, 0, 3.3),
		mkRow("p", "hp", 1, 0, 0, 6),
		mkRow("p", "hp", 2, 0, 0, 8),
	)
	res := mustDiff(t, base, cur, DefaultDiffOptions())
	if len(res.Regressions) != 1 {
		t.Fatalf("want exactly one regression, got %+v", res.Regressions)
	}
	if !strings.Contains(res.Regressions[0].Key, "ebr") {
		t.Fatalf("wrong cell flagged: %s", res.Regressions[0].Key)
	}
	out := RenderDiff(res, DefaultDiffOptions())
	if !strings.Contains(out, "REGRESSION") {
		t.Fatalf("rendered diff lacks the regression line:\n%s", out)
	}
}

func TestDiffAbsoluteMode(t *testing.T) {
	base := mkReport(mkRow("p", "debra", 1, 0, 0, 10), mkRow("p", "hp", 1, 0, 0, 10))
	cur := mkReport(mkRow("p", "debra", 1, 0, 0, 6), mkRow("p", "hp", 1, 0, 0, 6))
	// Relative mode: both cells moved together, nothing flagged.
	if res := mustDiff(t, base, cur, DefaultDiffOptions()); len(res.Regressions) != 0 {
		t.Fatalf("relative mode flagged a uniform move: %+v", res.Regressions)
	}
	// Absolute mode: both dropped 40% > 30%.
	opts := DiffOptions{Threshold: 0.30, Absolute: true}
	if res := mustDiff(t, base, cur, opts); len(res.Regressions) != 2 {
		t.Fatalf("absolute mode missed the drops: %+v", res)
	}
}

func TestDiffShardAxisDistinguishesCells(t *testing.T) {
	// Same title/scheme/threads but different shard counts are different
	// cells and must not be cross-matched.
	base := mkReport(mkRow("p", "ebr", 2, 1, 0, 5), mkRow("p", "ebr", 2, 4, 0, 10))
	cur := mkReport(mkRow("p", "ebr", 2, 1, 0, 5), mkRow("p", "ebr", 2, 4, 0, 10))
	res := mustDiff(t, base, cur, DefaultDiffOptions())
	if res.Compared != 2 || len(res.Regressions) != 0 {
		t.Fatalf("shard-axis cells mismatched: %+v", res)
	}
}

func TestDiffChurnAxisDistinguishesCells(t *testing.T) {
	// Same identity except the churn cadence: distinct cells.
	a := mkRow("p", "ebr", 2, 0, 256, 5)
	b := mkRow("p", "ebr", 2, 0, 256, 9)
	b.ChurnOps = 64
	res := mustDiff(t, mkReport(a, b), mkReport(a, b), DefaultDiffOptions())
	if res.Compared != 2 || len(res.Regressions) != 0 {
		t.Fatalf("churn-axis cells mismatched: %+v", res)
	}
}

func TestRenderChurnCosts(t *testing.T) {
	a := mkRow("p churn=64", "debra", 2, 0, 0, 5)
	a.ChurnOps, a.ChurnCycles, a.ChurnNsPerCycle = 64, 1000, 420
	b := a
	b.ChurnNsPerCycle = 840
	out := RenderChurnCosts(mkReport(a), mkReport(b))
	if !strings.Contains(out, "churn=64") || !strings.Contains(out, "2.00") {
		t.Fatalf("churn cost table missing cells or ratio:\n%s", out)
	}
	// Reports without churn rows produce no table at all.
	if out := RenderChurnCosts(mkReport(mkRow("p", "ebr", 1, 0, 0, 1)), mkReport()); out != "" {
		t.Fatalf("expected empty table, got:\n%s", out)
	}
}

func TestDiffMinMopsFloorAndMissing(t *testing.T) {
	base := mkReport(mkRow("p", "a", 1, 0, 0, 0.01), mkRow("p", "b", 1, 0, 0, 5), mkRow("p", "gone", 1, 0, 0, 5))
	cur := mkReport(mkRow("p", "a", 1, 0, 0, 0.001), mkRow("p", "b", 1, 0, 0, 5), mkRow("p", "new", 1, 0, 0, 5))
	res := mustDiff(t, base, cur, DefaultDiffOptions())
	if res.Skipped != 1 {
		t.Fatalf("Skipped = %d want 1 (the sub-floor cell)", res.Skipped)
	}
	if res.MissingInCurrent != 1 || res.MissingInBaseline != 1 {
		t.Fatalf("missing counts = %d/%d want 1/1", res.MissingInCurrent, res.MissingInBaseline)
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("noise cell flagged: %+v", res.Regressions)
	}
}

func TestDiffEmptyIntersectionIsError(t *testing.T) {
	// Disjoint row identities (e.g. a baseline that predates a new bench
	// axis) must be a hard error, not a silent "no regressions" pass.
	base := mkReport(mkRow("old-panel", "debra", 1, 0, 0, 10))
	cur := mkReport(mkRow("new-panel", "debra", 1, 0, 0, 10))
	if _, err := DiffReports(base, cur, DefaultDiffOptions()); err == nil {
		t.Fatal("disjoint reports diffed without error")
	} else if !strings.Contains(err.Error(), "share no cells") {
		t.Fatalf("unhelpful error for disjoint reports: %v", err)
	}
}

func TestDiffAllSkippedIsError(t *testing.T) {
	// Every matched cell under the MinMops floor: the gate compared nothing
	// and must say so instead of passing.
	base := mkReport(mkRow("p", "a", 1, 0, 0, 0.01), mkRow("p", "b", 1, 0, 0, 0.02))
	cur := mkReport(mkRow("p", "a", 1, 0, 0, 0.01), mkRow("p", "b", 1, 0, 0, 0.02))
	if _, err := DiffReports(base, cur, DefaultDiffOptions()); err == nil {
		t.Fatal("all-skipped comparison passed silently")
	} else if !strings.Contains(err.Error(), "noise floor") {
		t.Fatalf("unhelpful error for all-skipped comparison: %v", err)
	}
}

func TestParseReportRejectsEmpty(t *testing.T) {
	if _, err := ParseReport([]byte(`{"rows":[],"row_count":0}`)); err == nil {
		t.Fatal("empty report accepted")
	}
	if _, err := ParseReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

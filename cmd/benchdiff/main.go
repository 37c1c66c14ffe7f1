// Command benchdiff compares a fresh bench-smoke JSON report (produced by
// `reclaimbench -json`) against a committed baseline and exits non-zero when
// any cell's throughput regressed past the threshold. CI runs it after the
// bench-smoke job with the repository's BENCH_baseline.json.
//
// By default the comparison is relative: each cell's current/baseline ratio
// is normalised by the median ratio across all cells, so a uniformly slower
// (or faster) CI machine cancels out and only cells that got slower
// *relative to the rest of the suite* — the signature of a code-level
// regression — trip the gate. Use -absolute for same-machine comparisons.
//
//	benchdiff -baseline BENCH_baseline.json -current bench-smoke.json
//	benchdiff -baseline a.json -current b.json -threshold 0.2 -absolute
//	benchdiff bench-history/20260101.json bench-history/20260201.json
//
// Two positional arguments name an explicit (baseline, current) artifact
// pair — any two reports from the bench-history archive can be compared,
// not just HEAD against the committed baseline.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline JSON report")
		currentPath  = flag.String("current", "bench-smoke.json", "fresh JSON report to check")
		threshold    = flag.Float64("threshold", 0.30, "fractional throughput drop that fails (0.30 = 30%)")
		minMops      = flag.Float64("min-mops", 0.05, "ignore cells below this baseline throughput")
		absolute     = flag.Bool("absolute", false, "compare raw Mops/s instead of median-normalised ratios")
	)
	flag.Parse()

	// Positional form: benchdiff <baseline.json> <current.json> — compare
	// any two archived artifacts (the bench-history trend use case).
	switch flag.NArg() {
	case 0:
	case 2:
		// Mixing the positional pair with explicit -baseline/-current flags
		// would have to silently drop one of the two sources; reject it.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "baseline" || f.Name == "current" {
				fatal(fmt.Errorf("-%s cannot be combined with positional artifact paths", f.Name))
			}
		})
		*baselinePath = flag.Arg(0)
		*currentPath = flag.Arg(1)
	default:
		fatal(fmt.Errorf("want zero or exactly two positional arguments (baseline current), got %d", flag.NArg()))
	}

	baseline, err := readReport(*baselinePath)
	if err != nil {
		fatal(err)
	}
	current, err := readReport(*currentPath)
	if err != nil {
		fatal(err)
	}
	opts := bench.DiffOptions{Threshold: *threshold, MinMops: *minMops, Absolute: *absolute}
	res, err := bench.DiffReports(baseline, current, opts)
	if err != nil {
		// Degenerate comparisons (no overlapping cells, everything under the
		// noise floor) are hard failures: the gate verified nothing.
		fatal(err)
	}
	fmt.Print(bench.RenderDiff(res, opts))
	// Surface the per-op microcost columns of the hotpath probes (experiment
	// 7) whenever either report carries them — the numbers a hot-path
	// regression shows up in first.
	if mc := bench.RenderMicrocosts(baseline, current); mc != "" {
		fmt.Print(mc)
	}
	// Likewise the acquire/release latency columns of the churn rows
	// (experiment 8) — the cost a dynamically bound server actually pays
	// per goroutine turnover.
	if cc := bench.RenderChurnCosts(baseline, current); cc != "" {
		fmt.Print(cc)
	}
	// And the latency quantiles of the KV service rows (experiment 9) — the
	// end-to-end tail a reclamation stall surfaces in.
	if sl := bench.RenderServiceLatencies(baseline, current); sl != "" {
		fmt.Print(sl)
	}
	// And the pipelined service rows (experiment 12): the batching
	// amortisation across the depth sweep and the allocs/op the zero-alloc
	// request path is supposed to hold near zero.
	if pl := bench.RenderPipeline(baseline, current); pl != "" {
		fmt.Print(pl)
	}
	// And the fault-injection rows (experiment 11): the bounded/unbounded
	// unreclaimed-growth classification per scheme under a stalled thread and
	// the chaos-mode service resilience counters. Excluded from the gate,
	// rendered here — a classification flip is the regression to look for.
	if ft := bench.RenderFaults(baseline, current); ft != "" {
		fmt.Print(ft)
	}
	if len(res.Regressions) > 0 {
		fatal(fmt.Errorf("%d cells regressed more than %.0f%%", len(res.Regressions), *threshold*100))
	}
}

func readReport(path string) (bench.JSONReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return bench.JSONReport{}, err
	}
	return bench.ParseReport(data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}

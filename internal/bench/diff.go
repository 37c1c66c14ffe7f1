package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// This file implements the bench trend gate: comparing a fresh bench-smoke
// JSON report against a committed baseline (BENCH_baseline.json) and failing
// on throughput regressions. CI machines differ wildly in absolute speed, so
// the default comparison is RELATIVE: each cell's current/baseline ratio is
// normalised by the median ratio across all matched cells, cancelling the
// machine-speed factor. A cell whose normalised ratio drops below
// 1-Threshold regressed relative to the rest of the suite — which is what a
// code-level regression looks like (one scheme/configuration got slower),
// while a uniformly slower machine moves every ratio together and trips
// nothing. Absolute mode is available for same-machine comparisons.

// DiffOptions tunes DiffReports.
type DiffOptions struct {
	// Threshold is the fractional throughput drop that fails (0.30 = 30%).
	Threshold float64
	// MinMops ignores cells whose baseline throughput is below this floor
	// (tiny cells are noise-dominated in 30ms smoke trials).
	MinMops float64
	// Absolute compares raw Mops/s instead of median-normalised ratios.
	Absolute bool
}

// DefaultDiffOptions returns the CI gate configuration.
func DefaultDiffOptions() DiffOptions {
	return DiffOptions{Threshold: 0.30, MinMops: 0.05}
}

// DiffCell is one matched (baseline, current) measurement.
type DiffCell struct {
	Key      string  // title/scheme/threads/shards/batch identity
	Baseline float64 // baseline Mops/s
	Current  float64 // current Mops/s
	Ratio    float64 // current / baseline
	Norm     float64 // Ratio / median ratio (== Ratio in absolute mode)
}

// DiffResult is the outcome of comparing two reports.
type DiffResult struct {
	Compared          int
	Skipped           int // cells under the MinMops floor
	FaultRows         int // fault-injection cells excluded from the gate
	MissingInCurrent  int
	MissingInBaseline int
	MedianRatio       float64
	Regressions       []DiffCell
	Improvements      []DiffCell // informational: cells past the threshold upward
}

// rowKey identifies a cell across runs. The title already encodes the data
// structure, key range, mix and table regime; scheme, threads and the
// sharding/placement/batching/churn axes complete the identity.
// (Baselines recorded before an axis existed decode its value as 0 — the
// configuration they actually measured — but adding an axis changes every
// key, so the committed baseline must be regenerated with make
// bench-baseline when one lands, which the degenerate-comparison error
// below enforces loudly.)
func rowKey(r JSONRow) string {
	return fmt.Sprintf("%s | %s | threads=%d shards=%d/%s batch=%d churn=%d",
		r.Title, r.Scheme, r.Threads, r.Shards, r.Placement, r.RetireBatch, r.ChurnOps)
}

// faultRow reports whether a row belongs to the fault-injection experiment
// (11): the stalled-thread probe rows and the chaos-mode service rows. Fault
// rows are excluded from the throughput trend gate — a probe's op count is
// fixed rather than duration-scaled and a chaos run's throughput depends on
// how much chaos the schedule dealt it — but RenderFaults still reports
// them. Identification is by row identity (data structure / title), not by
// the chaos counters, so both sides of a diff filter identically even when a
// run's chaos schedule happened to inject nothing.
func faultRow(r JSONRow) bool {
	return r.DataStructure == DSFaultProbe || strings.Contains(r.Title, DSService+"-chaos")
}

// ParseReport decodes a JSON report produced by reclaimbench -json.
func ParseReport(data []byte) (JSONReport, error) {
	var rep JSONReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("bench: parsing report: %w", err)
	}
	if rep.RowCount == 0 || len(rep.Rows) == 0 {
		return rep, fmt.Errorf("bench: report contains no rows")
	}
	return rep, nil
}

// DiffReports compares current against baseline. Degenerate comparisons are
// hard errors rather than silent passes: a gate that matched zero cells
// (disjoint row identities — typically a baseline that predates a new bench
// axis) or skipped every matched cell (all below the MinMops noise floor)
// has verified nothing, and letting it return "no regressions" would archive
// a green artifact on top of a broken comparison.
func DiffReports(baseline, current JSONReport, opts DiffOptions) (DiffResult, error) {
	if opts.Threshold <= 0 {
		opts.Threshold = DefaultDiffOptions().Threshold
	}
	var res DiffResult
	base := map[string]JSONRow{}
	for _, r := range baseline.Rows {
		if faultRow(r) {
			continue
		}
		base[rowKey(r)] = r
	}
	cur := map[string]JSONRow{}
	for _, r := range current.Rows {
		if faultRow(r) {
			res.FaultRows++
			continue
		}
		cur[rowKey(r)] = r
	}

	for k := range base {
		if _, ok := cur[k]; !ok {
			res.MissingInCurrent++
		}
	}
	var cells []DiffCell
	var ratios []float64
	matched := 0
	for k, c := range cur {
		b, ok := base[k]
		if !ok {
			res.MissingInBaseline++
			continue
		}
		matched++
		if b.MopsPerSec < opts.MinMops || b.MopsPerSec == 0 {
			res.Skipped++
			continue
		}
		cell := DiffCell{Key: k, Baseline: b.MopsPerSec, Current: c.MopsPerSec}
		cell.Ratio = c.MopsPerSec / b.MopsPerSec
		cells = append(cells, cell)
		ratios = append(ratios, cell.Ratio)
	}
	res.Compared = len(cells)
	if matched == 0 {
		return res, fmt.Errorf("bench: baseline and current share no cells (%d baseline rows, %d current rows, 0 matching identities) — the baseline likely predates a bench-axis change; refresh it with make bench-baseline",
			len(baseline.Rows), len(current.Rows))
	}
	if res.Compared == 0 {
		return res, fmt.Errorf("bench: all %d matched cells fall below the %.2f Mops/s noise floor — nothing was actually compared; lower -min-mops or lengthen the trials",
			res.Skipped, opts.MinMops)
	}
	res.MedianRatio = median(ratios)
	norm := res.MedianRatio
	if opts.Absolute || norm <= 0 {
		norm = 1
	}
	for i := range cells {
		cells[i].Norm = cells[i].Ratio / norm
		switch {
		case cells[i].Norm < 1-opts.Threshold:
			res.Regressions = append(res.Regressions, cells[i])
		case cells[i].Norm > 1+opts.Threshold:
			res.Improvements = append(res.Improvements, cells[i])
		}
	}
	sort.Slice(res.Regressions, func(i, j int) bool { return res.Regressions[i].Norm < res.Regressions[j].Norm })
	sort.Slice(res.Improvements, func(i, j int) bool { return res.Improvements[i].Norm > res.Improvements[j].Norm })
	return res, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// RenderMicrocosts renders the per-op microcost columns of the hotpath probe
// rows (experiment 7) from both reports: scheme, threads, probe kind,
// baseline and current ns/op, and the ratio. Rows missing from one side
// print a dash; reports recorded before the hotpath experiment existed
// simply produce no table.
func RenderMicrocosts(baseline, current JSONReport) string {
	type cell struct{ base, cur float64 }
	cells := map[string]*cell{}
	var keys []string
	get := func(r JSONRow) *cell {
		k := rowKey(r)
		c, ok := cells[k]
		if !ok {
			c = &cell{}
			cells[k] = c
			keys = append(keys, k)
		}
		return c
	}
	nsOf := func(r JSONRow) float64 {
		if r.NsPerOp > 0 {
			return r.NsPerOp
		}
		if r.MopsPerSec > 0 {
			return 1e3 / r.MopsPerSec
		}
		return 0
	}
	for _, r := range baseline.Rows {
		if strings.HasPrefix(r.DataStructure, "hotpath:") {
			get(r).base = nsOf(r)
		}
	}
	for _, r := range current.Rows {
		if strings.HasPrefix(r.DataStructure, "hotpath:") {
			get(r).cur = nsOf(r)
		}
	}
	if len(cells) == 0 {
		return ""
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("hot-path per-op microcosts (experiment 7):\n")
	fmt.Fprintf(&sb, "  %-72s %12s %12s %8s\n", "probe", "base ns/op", "cur ns/op", "ratio")
	for _, k := range keys {
		c := cells[k]
		base, cur, ratio := "-", "-", "-"
		if c.base > 0 {
			base = fmt.Sprintf("%.1f", c.base)
		}
		if c.cur > 0 {
			cur = fmt.Sprintf("%.1f", c.cur)
		}
		if c.base > 0 && c.cur > 0 {
			ratio = fmt.Sprintf("%.2f", c.cur/c.base)
		}
		fmt.Fprintf(&sb, "  %-72s %12s %12s %8s\n", k, base, cur, ratio)
	}
	return sb.String()
}

// RenderChurnCosts renders the acquire/release latency columns of the
// goroutine-churn rows (experiment 8) from both reports: cell identity,
// baseline and current ns per release+acquire cycle, and the ratio. Rows
// missing from one side print a dash; reports recorded before the churn
// experiment existed simply produce no table.
func RenderChurnCosts(baseline, current JSONReport) string {
	type cell struct{ base, cur float64 }
	cells := map[string]*cell{}
	var keys []string
	get := func(r JSONRow) *cell {
		k := rowKey(r)
		c, ok := cells[k]
		if !ok {
			c = &cell{}
			cells[k] = c
			keys = append(keys, k)
		}
		return c
	}
	for _, r := range baseline.Rows {
		if r.ChurnOps > 0 && r.ChurnNsPerCycle > 0 {
			get(r).base = r.ChurnNsPerCycle
		}
	}
	for _, r := range current.Rows {
		if r.ChurnOps > 0 && r.ChurnNsPerCycle > 0 {
			get(r).cur = r.ChurnNsPerCycle
		}
	}
	if len(cells) == 0 {
		return ""
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("slot acquire/release latency under churn (experiment 8):\n")
	fmt.Fprintf(&sb, "  %-72s %14s %14s %8s\n", "cell", "base ns/cycle", "cur ns/cycle", "ratio")
	for _, k := range keys {
		c := cells[k]
		base, cur, ratio := "-", "-", "-"
		if c.base > 0 {
			base = fmt.Sprintf("%.0f", c.base)
		}
		if c.cur > 0 {
			cur = fmt.Sprintf("%.0f", c.cur)
		}
		if c.base > 0 && c.cur > 0 {
			ratio = fmt.Sprintf("%.2f", c.cur/c.base)
		}
		fmt.Fprintf(&sb, "  %-72s %14s %14s %8s\n", k, base, cur, ratio)
	}
	return sb.String()
}

// RenderServiceLatencies renders the latency-quantile columns of the KV
// service rows (experiment 9) from both reports: cell identity, baseline and
// current p50/p99/p999 in microseconds, and the p99 ratio. Latencies are
// informational alongside the Mops/s gate — wall-clock quantiles over
// loopback TCP are too machine-dependent for a hard threshold, but the trend
// is exactly where a reclamation stall would surface. Rows missing from one
// side print a dash; reports recorded before the service experiment existed
// simply produce no table.
func RenderServiceLatencies(baseline, current JSONReport) string {
	type cell struct{ base, cur JSONRow }
	cells := map[string]*cell{}
	var keys []string
	get := func(r JSONRow) *cell {
		k := rowKey(r)
		c, ok := cells[k]
		if !ok {
			c = &cell{}
			cells[k] = c
			keys = append(keys, k)
		}
		return c
	}
	for _, r := range baseline.Rows {
		if r.DataStructure == DSService && r.P99Ns > 0 {
			get(r).base = r
		}
	}
	for _, r := range current.Rows {
		if r.DataStructure == DSService && r.P99Ns > 0 {
			get(r).cur = r
		}
	}
	if len(cells) == 0 {
		return ""
	}
	sort.Strings(keys)
	us := func(ns int64) string {
		if ns <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", float64(ns)/1e3)
	}
	var sb strings.Builder
	sb.WriteString("KV service latency quantiles, microseconds (experiment 9):\n")
	fmt.Fprintf(&sb, "  %-88s %21s %21s %9s\n", "cell", "base p50/p99/p999", "cur p50/p99/p999", "p99 ratio")
	for _, k := range keys {
		c := cells[k]
		base := fmt.Sprintf("%s/%s/%s", us(c.base.P50Ns), us(c.base.P99Ns), us(c.base.P999Ns))
		cur := fmt.Sprintf("%s/%s/%s", us(c.cur.P50Ns), us(c.cur.P99Ns), us(c.cur.P999Ns))
		ratio := "-"
		if c.base.P99Ns > 0 && c.cur.P99Ns > 0 {
			ratio = fmt.Sprintf("%.2f", float64(c.cur.P99Ns)/float64(c.base.P99Ns))
		}
		fmt.Fprintf(&sb, "  %-88s %21s %21s %9s\n", k, base, cur, ratio)
	}
	return sb.String()
}

// RenderPipeline renders the pipelined KV service rows (experiment 12) from
// both reports: cell identity (the Title carries the pipeline depth),
// baseline and current Mops/s with their ratio, and the current process-wide
// allocations per request. The depth sweep shares the trend gate with every
// other row — this table adds the two columns the gate does not compare: the
// batching amortisation visible across the depths of one scheme, and the
// allocs/op figure the zero-alloc request path is supposed to hold near zero.
// Rows missing from one side print a dash; reports recorded before the
// pipeline experiment existed simply produce no table.
func RenderPipeline(baseline, current JSONReport) string {
	type cell struct{ base, cur JSONRow }
	cells := map[string]*cell{}
	var keys []string
	get := func(r JSONRow) *cell {
		k := rowKey(r)
		c, ok := cells[k]
		if !ok {
			c = &cell{}
			cells[k] = c
			keys = append(keys, k)
		}
		return c
	}
	for _, r := range baseline.Rows {
		if r.PipelineDepth > 0 {
			get(r).base = r
		}
	}
	for _, r := range current.Rows {
		if r.PipelineDepth > 0 {
			get(r).cur = r
		}
	}
	if len(cells) == 0 {
		return ""
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("pipelined KV service throughput and allocations (experiment 12):\n")
	fmt.Fprintf(&sb, "  %-96s %10s %10s %8s %12s\n", "cell", "base Mops", "cur Mops", "ratio", "cur allocs/op")
	for _, k := range keys {
		c := cells[k]
		base, cur, ratio, allocs := "-", "-", "-", "-"
		if c.base.MopsPerSec > 0 {
			base = fmt.Sprintf("%.3f", c.base.MopsPerSec)
		}
		if c.cur.MopsPerSec > 0 {
			cur = fmt.Sprintf("%.3f", c.cur.MopsPerSec)
		}
		if c.base.MopsPerSec > 0 && c.cur.MopsPerSec > 0 {
			ratio = fmt.Sprintf("%.2f", c.cur.MopsPerSec/c.base.MopsPerSec)
		}
		if c.cur.Title != "" {
			allocs = fmt.Sprintf("%.2f", c.cur.AllocsPerOp)
		}
		fmt.Fprintf(&sb, "  %-96s %10s %10s %8s %12s\n", k, base, cur, ratio, allocs)
	}
	return sb.String()
}

// RenderFaults renders the fault-injection rows (experiment 11) from both
// reports. Probe rows show the bounded/unbounded classification and the
// stall-induced Unreclaimed growth slope next to the baseline run's — the
// robustness claim itself (one stalled thread: DEBRA+/HP bounded, EBR/QSBR/
// DEBRA unbounded) rendered as data. Chaos service rows show the resilience
// counters: ERR_BUSY fast-fails absorbed, retries, reconnects, give-ups and
// the chaos injections that provoked them. Both are informational (fault
// rows are excluded from the throughput gate); a probe row whose
// classification CHANGED between baseline and current is flagged, since that
// is a robustness regression no throughput gate would see. Reports recorded
// before the fault experiment existed simply produce no table.
func RenderFaults(baseline, current JSONReport) string {
	type cell struct{ base, cur JSONRow }
	collect := func(keep func(JSONRow) bool) (map[string]*cell, []string) {
		cells := map[string]*cell{}
		var keys []string
		get := func(r JSONRow) *cell {
			k := rowKey(r)
			c, ok := cells[k]
			if !ok {
				c = &cell{}
				cells[k] = c
				keys = append(keys, k)
			}
			return c
		}
		for _, r := range baseline.Rows {
			if keep(r) {
				get(r).base = r
			}
		}
		for _, r := range current.Rows {
			if keep(r) {
				get(r).cur = r
			}
		}
		sort.Strings(keys)
		return cells, keys
	}
	var sb strings.Builder
	probeCells, probeKeys := collect(func(r JSONRow) bool { return r.DataStructure == DSFaultProbe })
	if len(probeKeys) > 0 {
		sb.WriteString("stalled-thread unreclaimed growth (experiment 11):\n")
		fmt.Fprintf(&sb, "  %-72s %-10s %-10s %14s %14s\n", "cell", "base", "cur", "cur slope", "cur max unrecl")
		for _, k := range probeKeys {
			c := probeCells[k]
			class := func(r JSONRow) string {
				if r.FaultClass == "" {
					return "-"
				}
				return r.FaultClass
			}
			flag := ""
			if c.base.FaultClass != "" && c.cur.FaultClass != "" && c.base.FaultClass != c.cur.FaultClass {
				flag = "  <-- CLASSIFICATION CHANGED"
			}
			slope := "-"
			if c.cur.FaultClass != "" {
				slope = fmt.Sprintf("%+.3f/op", c.cur.UnreclaimedSlopeDelta)
			}
			fmt.Fprintf(&sb, "  %-72s %-10s %-10s %14s %14d%s\n",
				k, class(c.base), class(c.cur), slope, c.cur.FaultMaxUnreclaimed, flag)
		}
	}
	chaosCells, chaosKeys := collect(func(r JSONRow) bool {
		return r.DataStructure == DSService && strings.Contains(r.Title, DSService+"-chaos")
	})
	if len(chaosKeys) > 0 {
		if sb.Len() > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString("chaos-mode KV service resilience counters (experiment 11):\n")
		fmt.Fprintf(&sb, "  %-88s %28s %16s\n", "cell", "cur busy/retry/reconn/gaveup", "cur stalls/kills")
		for _, k := range chaosKeys {
			c := chaosCells[k]
			counters, chaos := "-", "-"
			if c.cur.Title != "" {
				counters = fmt.Sprintf("%d/%d/%d/%d", c.cur.Busy, c.cur.Retries, c.cur.Reconnects, c.cur.GaveUp)
				chaos = fmt.Sprintf("%d/%d", c.cur.ChaosStalls, c.cur.ChaosKills)
			}
			fmt.Fprintf(&sb, "  %-88s %28s %16s\n", k, counters, chaos)
		}
	}
	return sb.String()
}

// RenderDiff renders the comparison for humans (and the CI log).
func RenderDiff(res DiffResult, opts DiffOptions) string {
	var sb strings.Builder
	mode := "relative (median-normalised)"
	if opts.Absolute {
		mode = "absolute"
	}
	fmt.Fprintf(&sb, "bench diff: %d cells compared, %d skipped (< %.2f Mops/s baseline), mode %s, threshold %.0f%%\n",
		res.Compared, res.Skipped, opts.MinMops, mode, opts.Threshold*100)
	if res.FaultRows > 0 {
		fmt.Fprintf(&sb, "%d fault-injection cells excluded from the gate (probe op counts are fixed and chaos throughput is schedule noise; see the fault tables)\n", res.FaultRows)
	}
	fmt.Fprintf(&sb, "median current/baseline ratio: %.3f (machine-speed factor cancelled in relative mode)\n", res.MedianRatio)
	if !opts.Absolute && res.MedianRatio > 0 && res.MedianRatio < 1-opts.Threshold {
		// Relative mode cannot tell a slow machine from a uniform code-level
		// slowdown (e.g. a shared Record Manager hot path getting slower
		// everywhere) — both move every ratio together. Surface the shift
		// loudly so a human (or a same-machine -absolute rerun) decides.
		fmt.Fprintf(&sb, "WARNING: the whole suite runs at %.0f%% of baseline; relative mode cannot distinguish a slower machine from a uniform regression — rerun with -absolute on the baseline machine to rule one out\n",
			res.MedianRatio*100)
	}
	if res.MissingInCurrent > 0 || res.MissingInBaseline > 0 {
		fmt.Fprintf(&sb, "warning: %d baseline cells missing from current, %d current cells not in baseline\n",
			res.MissingInCurrent, res.MissingInBaseline)
	}
	if len(res.Regressions) == 0 {
		sb.WriteString("no regressions past the threshold\n")
	}
	for _, c := range res.Regressions {
		fmt.Fprintf(&sb, "REGRESSION %5.1f%%  %s  (%.3f -> %.3f Mops/s)\n",
			(1-c.Norm)*100, c.Key, c.Baseline, c.Current)
	}
	for _, c := range res.Improvements {
		fmt.Fprintf(&sb, "improved  +%5.1f%%  %s  (%.3f -> %.3f Mops/s)\n",
			(c.Norm-1)*100, c.Key, c.Baseline, c.Current)
	}
	return sb.String()
}

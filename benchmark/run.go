package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
)

// metric is a named value with its unit, as printed and as put in the result
// line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics in print order with their units; the
// same eight on every workload. BENCHMARK.json carries direction and bound.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"unreclaimed_mean_records", "records"},
	{"rss_peak_mb", "MiB"},
	{"verified_share", "share"},
}

// An end-to-end run builds its system under test `builds` times and measures
// each build for an equal share of the segments. How fast one build runs
// depends on where its memory happened to land (the same structure, same
// seed, same process measured 1.9–2.7 M ops/s over eight builds), so one build
// per run makes every timing a draw from that lottery; the median over the
// builds does not. setup_s is the median over the same builds.
const (
	builds            = 8
	segmentsPerSecond = 20 // a segment is segOps/segmentsPerSecond operations per worker, about 50 ms
)

func build(s *spec, seed uint64) (*target, error) {
	switch s.structure {
	case structBST:
		return buildBST(s, seed)
	case structMap:
		return buildMap(s, seed)
	default:
		return buildService(s, seed)
	}
}

// setup is the work setup_s times: build, prefill, a fixed-count warm-up and
// a collection, so the first measured segment starts on a settled heap.
func setup(s *spec, seed uint64) (*target, error) {
	t, err := build(s, seed)
	if err != nil {
		return nil, err
	}
	t.workers[0].state().sample = func() (int64, int64) {
		c := t.counters()
		return c.Unreclaimed, c.Limbo
	}
	runAll(t, s.warmOps)
	runtime.GC()
	return t, nil
}

// measured is what one measured phase of a run yields.
type measured struct {
	segs    []segment
	t       timings
	delta   counters // layer counters over the phase
	mallocs uint64   // process heap allocations over the phase
	sum     counts   // the workers' tallies over the phase, summed
	unrMax  int64    // largest Unreclaimed sampled in the phase
}

func sumTallies(t *target) counts {
	var s counts
	for _, w := range t.workers {
		s = s.plus(w.state().counts, 1)
	}
	return s
}

// measure runs n segments and returns what changed over them.
func measure(t *target, n int) (measured, error) {
	var ms0, ms1 runtime.MemStats
	w0 := t.workers[0].state()
	w0.unrMax = 0
	before, c0 := sumTallies(t), t.counters()
	runtime.ReadMemStats(&ms0)
	segs, err := runSegments(t, n, t.spec.segOps/segmentsPerSecond)
	runtime.ReadMemStats(&ms1)
	return measured{
		segs: segs, t: summarize(segs), delta: t.counters().sub(c0), mallocs: ms1.Mallocs - ms0.Mallocs,
		sum: sumTallies(t).plus(before, -1), unrMax: w0.unrMax,
	}, err
}

// firstError returns the first worker's sticky I/O error, if any.
func firstError(t *target) error {
	for _, w := range t.workers {
		if err := w.state().err; err != nil {
			return err
		}
	}
	return nil
}

// outcome is a run's verification verdict.
type outcome struct {
	attempted, failed int64 // operations issued / not verified (mismatch, BUSY, refusal)
	err               error // a structural check failed: validation, contents, Retired != Freed, I/O
}

func (o *outcome) absorb(t *target, finishErr error) {
	sum := sumTallies(t)
	o.attempted += sum.ops
	o.failed += sum.failed + sum.busy
	for _, err := range []error{firstError(t), finishErr} {
		if err != nil && o.err == nil {
			o.err = err
		}
	}
}

func (o *outcome) correct() bool { return o.err == nil && o.failed == 0 && o.attempted > 0 }

// runEndToEnd is the untraced run: `builds` times set-up, an equal share of
// seconds*segmentsPerSecond measured segments and the final checks. Every
// timing is the median over the builds of the median over a build's segments.
func runEndToEnd(s *spec, seed uint64, seconds int) (map[string]metric, *runRecord, outcome) {
	var out outcome
	rec := newRunRecord(s, seed)
	for b := 0; b < builds; b++ {
		t0 := now()
		if b == 0 {
			t0 = 0 // the first set-up is timed from process start
		}
		t, err := setup(s, seed)
		if err != nil {
			out.err = err
			return nil, rec, out
		}
		setupS := float64(now()-t0) / 1e9
		m, err := measure(t, seconds*segmentsPerSecond/builds)
		out.absorb(t, errors.Join(err, t.finish()))
		// Give the finished build's memory back, so the peak RSS is one
		// build's and every build starts on a fresh heap.
		debug.FreeOSMemory()

		rec.Builds = append(rec.Builds, map[string]float64{
			"setup_s": setupS, "ops_per_s": m.t.opsPerS, "cpu_us_per_op": m.t.cpuUsPerOp,
			"op_p50_us": m.t.p50Us, "op_p90_us": m.t.p90Us, "op_p99_us": m.t.p99Us,
			"unreclaimed_mean_records": ratio(m.sum.unrSum, m.sum.samples), "rss_peak_mb": m.t.rssPeakMiB,
		})
		for i := range m.segs {
			m.segs[i].Build = b
		}
		rec.Segments = append(rec.Segments, m.segs...)
		rec.UnreclaimedSamples += m.sum.samples
	}
	values := map[string]float64{"verified_share": ratio(out.attempted-out.failed, out.attempted)}
	for name := range rec.Builds[0] {
		var column []float64
		for _, b := range rec.Builds {
			column = append(column, b[name])
		}
		values[name] = median(column)
	}
	return toMetrics(endToEnd, values), rec, out
}

func printMetrics(defs [][2]string, metrics map[string]metric, note string) {
	for _, d := range defs {
		fmt.Printf("  %-34s %16.6f %-8s %s\n", d[0], metrics[d[0]].Value, d[1], note)
	}
}

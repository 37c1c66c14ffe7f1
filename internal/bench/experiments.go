package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/recordmgr"
)

// Panel is one plot panel of the paper (one data structure, key range and
// operation mix): a table of throughput with one row per thread count and
// one column per reclamation scheme.
type Panel struct {
	// Figure identifies the paper artifact ("Figure 8 left", ...).
	Figure string
	// Title describes the panel ("BST range [0,1e6), 50i-50d").
	Title string
	// DataStructure, Workload, Allocator and UsePool are shared by every
	// cell of the panel.
	DataStructure string
	Workload      Workload
	Allocator     recordmgr.AllocatorKind
	UsePool       bool
	// Schemes are the columns; Threads are the rows.
	Schemes []string
	Threads []int
	// StallThreads configures the fault-probe panels; see the Config field
	// of the same name.
	StallThreads int
}

// PanelResult holds the measured cells of a panel.
type PanelResult struct {
	Panel   Panel
	Results map[string]map[int]Result // scheme -> threads -> result
	Errors  []error
}

// Options controls an experiment run.
type Options struct {
	// Duration of each trial.
	Duration time.Duration
	// MaxThreads bounds the thread sweep (default: 2 x NumCPU).
	MaxThreads int
	// Quick shrinks key ranges so a whole experiment runs in seconds.
	Quick bool
	// Seed for workload generators.
	Seed int64
}

// DefaultOptions returns options that mirror the paper's setup (scaled to
// this machine) with a reduced per-trial duration.
func DefaultOptions() Options {
	return Options{Duration: 500 * time.Millisecond, Seed: 1}
}

// scaleRange shrinks a key range in quick mode.
func (o Options) scaleRange(r int64) int64 {
	if o.Quick && r > 1<<12 {
		return 1 << 12
	}
	return r
}

// threads returns the thread sweep for the options.
func (o Options) threads() []int {
	return DefaultThreadCounts(o.MaxThreads)
}

// withRange returns w with its key range set.
func withRange(w Workload, keyRange int64) Workload {
	w.KeyRange = keyRange
	return w
}

// Experiment identifiers.
const (
	Experiment1 = 1 // reclamation overhead without reuse (Figure 8 left)
	Experiment2 = 2 // bump allocator + pool (Figure 8 right, Figure 9 left)
	Experiment3 = 3 // heap allocator + pool (Figure 10)
)

// ExperimentPanels returns the panels of the given experiment. Experiments
// 1–3 mirror the rows of Figures 8 and 10: BST with key ranges 10^6 and 10^4
// and the skip list with key range 2*10^5, each under the 50i-50d and
// 25i-25d-50s mixes. ExperimentFaults is the stalled-thread probe.
func ExperimentPanels(experiment int, opts Options) ([]Panel, error) {
	var alloc recordmgr.AllocatorKind
	var usePool bool
	var figure string
	switch experiment {
	case Experiment1:
		alloc, usePool, figure = recordmgr.AllocBump, false, "Figure 8 (left), Experiment 1"
	case Experiment2:
		alloc, usePool, figure = recordmgr.AllocBump, true, "Figure 8 (right) / Figure 9 (left), Experiment 2"
	case Experiment3:
		alloc, usePool, figure = recordmgr.AllocHeap, true, "Figure 10, Experiment 3"
	case ExperimentFaults:
		return FaultPanels(opts), nil
	default:
		return nil, fmt.Errorf("bench: unknown experiment %d", experiment)
	}
	type shape struct {
		ds       string
		keyRange int64
	}
	shapes := []shape{
		{DSBST, 1_000_000},
		{DSBST, 10_000},
		{DSSkipList, 200_000},
	}
	mixes := []Workload{MixUpdateHeavy, MixReadHeavy}
	var panels []Panel
	for _, sh := range shapes {
		for _, mix := range mixes {
			w := withRange(mix, opts.scaleRange(sh.keyRange))
			panels = append(panels, Panel{
				Figure:        figure,
				Title:         fmt.Sprintf("%s range [0,%d) %di-%dd", sh.ds, w.KeyRange, w.InsertPct, w.DeletePct),
				DataStructure: sh.ds,
				Workload:      w,
				Allocator:     alloc,
				UsePool:       usePool,
				Schemes:       SupportedSchemes(sh.ds),
				Threads:       opts.threads(),
			})
		}
	}
	return panels, nil
}

// RunPanel measures every cell of a panel.
func RunPanel(p Panel, opts Options) PanelResult {
	out := PanelResult{Panel: p, Results: map[string]map[int]Result{}}
	for _, scheme := range p.Schemes {
		out.Results[scheme] = map[int]Result{}
		for _, threads := range p.Threads {
			cfg := Config{
				DataStructure: p.DataStructure,
				Scheme:        scheme,
				Threads:       threads,
				Duration:      opts.Duration,
				Workload:      p.Workload,
				Allocator:     p.Allocator,
				UsePool:       p.UsePool,
				Seed:          opts.Seed,
				StallThreads:  p.StallThreads,
			}
			res, err := runSafely(cfg)
			if err != nil {
				out.Errors = append(out.Errors, fmt.Errorf("%s/%s/%d threads: %w", p.Title, scheme, threads, err))
				continue
			}
			out.Results[scheme][threads] = res
		}
	}
	return out
}

// RunExperiment runs every panel of an experiment.
func RunExperiment(experiment int, opts Options) ([]PanelResult, error) {
	panels, err := ExperimentPanels(experiment, opts)
	if err != nil {
		return nil, err
	}
	var out []PanelResult
	for _, p := range panels {
		out = append(out, RunPanel(p, opts))
	}
	return out, nil
}

// RenderThroughputTable renders a panel result as an aligned text table of
// millions of operations per second (the paper's y axis), one row per
// thread count and one column per scheme.
func RenderThroughputTable(pr PanelResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%s  (Mops/s; allocator=%s pool=%v)\n",
		pr.Panel.Figure, pr.Panel.Title, allocName(pr.Panel.Allocator), pr.Panel.UsePool)
	fmt.Fprintf(&sb, "%8s", "threads")
	for _, s := range pr.Panel.Schemes {
		fmt.Fprintf(&sb, "%12s", s)
	}
	sb.WriteByte('\n')
	for _, th := range pr.Panel.Threads {
		fmt.Fprintf(&sb, "%8d", th)
		for _, s := range pr.Panel.Schemes {
			if r, ok := pr.Results[s][th]; ok {
				fmt.Fprintf(&sb, "%12.3f", r.MopsPerSec)
			} else {
				fmt.Fprintf(&sb, "%12s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	writeErrors(&sb, pr.Errors)
	return sb.String()
}

// writeErrors appends one line per failed cell.
func writeErrors(sb *strings.Builder, errs []error) {
	for _, err := range errs {
		fmt.Fprintf(sb, "error: %v\n", err)
	}
}

// RenderCSV renders a panel result as CSV rows. The unreclaimed column is
// ManagerStats.Unreclaimed at the end of the trial.
func RenderCSV(pr PanelResult, includeHeader bool) string {
	var sb strings.Builder
	if includeHeader {
		sb.WriteString("figure,title,scheme,threads,mops,allocated_bytes,retired,freed,limbo,unreclaimed,neutralizations\n")
	}
	for _, s := range pr.Panel.Schemes {
		for _, th := range pr.Panel.Threads {
			r, ok := pr.Results[s][th]
			if !ok {
				continue
			}
			fmt.Fprintf(&sb, "%q,%q,%s,%d,%.4f,%d,%d,%d,%d,%d,%d\n",
				pr.Panel.Figure, pr.Panel.Title, s, th,
				r.MopsPerSec, r.AllocatedBytes,
				r.Reclaimer.Retired, r.Reclaimer.Freed, r.Reclaimer.Limbo, r.Unreclaimed, r.Reclaimer.Neutralizations)
		}
	}
	return sb.String()
}

func allocName(a recordmgr.AllocatorKind) string {
	if a == "" {
		return string(recordmgr.AllocBump)
	}
	return string(a)
}

// MemoryFootprintRow is one row of the Figure 9 (right) reproduction: the
// total memory allocated for records during an Experiment-2 style trial of
// the BST (key range 10^4, 50i-50d), per scheme, at a given thread count.
// Unreclaimed is the end-of-trial retired-but-not-freed record count — the
// reclamation component of the footprint.
type MemoryFootprintRow struct {
	Threads     int
	Bytes       map[string]int64
	Neut        map[string]int64
	Unreclaimed map[string]int64
}

// MemoryExperiment reproduces Figure 9 (right): it measures the memory
// allocated for records as the thread count grows past the number of
// hardware threads. DEBRA's footprint grows sharply once threads are
// preempted mid-operation; DEBRA+ neutralizes the preempted threads and
// keeps the footprint close to HP's.
func MemoryExperiment(opts Options) ([]MemoryFootprintRow, []string, error) {
	schemes := []string{recordmgr.SchemeDEBRA, recordmgr.SchemeDEBRAPlus, recordmgr.SchemeHP}
	keyRange := opts.scaleRange(10_000)
	var rows []MemoryFootprintRow
	for _, threads := range opts.threads() {
		row := MemoryFootprintRow{
			Threads: threads,
			Bytes:   map[string]int64{}, Neut: map[string]int64{}, Unreclaimed: map[string]int64{},
		}
		for _, scheme := range schemes {
			cfg := Config{
				DataStructure: DSBST,
				Scheme:        scheme,
				Threads:       threads,
				Duration:      opts.Duration,
				Workload:      withRange(MixUpdateHeavy, keyRange),
				Allocator:     recordmgr.AllocBump,
				UsePool:       true,
				Seed:          opts.Seed,
			}
			res, err := runSafely(cfg)
			if err != nil {
				return nil, nil, err
			}
			row.Bytes[scheme] = res.AllocatedBytes
			row.Neut[scheme] = res.Reclaimer.Neutralizations
			row.Unreclaimed[scheme] = res.Unreclaimed
		}
		rows = append(rows, row)
	}
	return rows, schemes, nil
}

// RenderMemoryTable renders the Figure 9 (right) reproduction.
func RenderMemoryTable(rows []MemoryFootprintRow, schemes []string) string {
	var sb strings.Builder
	sb.WriteString("Figure 9 (right): memory allocated for records (MB), bst range [0,1e4), 50i-50d\n")
	sb.WriteString("(unreclaimed = retired-but-not-freed records at the end of the trial)\n")
	fmt.Fprintf(&sb, "%8s", "threads")
	for _, s := range schemes {
		fmt.Fprintf(&sb, "%12s", s)
	}
	for _, s := range schemes {
		fmt.Fprintf(&sb, "%14s", "unrec:"+s)
	}
	fmt.Fprintf(&sb, "%16s\n", "neutralizations")
	for _, row := range rows {
		fmt.Fprintf(&sb, "%8d", row.Threads)
		for _, s := range schemes {
			fmt.Fprintf(&sb, "%12.2f", float64(row.Bytes[s])/(1<<20))
		}
		for _, s := range schemes {
			fmt.Fprintf(&sb, "%14d", row.Unreclaimed[s])
		}
		fmt.Fprintf(&sb, "%16d\n", row.Neut[recordmgr.SchemeDEBRAPlus])
	}
	return sb.String()
}

// Summary holds the headline comparisons the paper quotes in its abstract
// and conclusion, computed from an Experiment-2 style panel.
type Summary struct {
	// DebraVsNone is the mean throughput ratio DEBRA / None.
	DebraVsNone float64
	// DebraPlusVsNone is the mean ratio DEBRA+ / None.
	DebraPlusVsNone float64
	// DebraPlusVsDebra is the mean ratio DEBRA+ / DEBRA.
	DebraPlusVsDebra float64
	// DebraVsHP and DebraPlusVsHP are the mean ratios against hazard
	// pointers (the paper reports ~1.75x-1.8x).
	DebraVsHP     float64
	DebraPlusVsHP float64
	// Samples is the number of (panel, thread-count) cells aggregated.
	Samples int
}

// Summarize computes the headline ratios across a set of panel results.
func Summarize(results []PanelResult) Summary {
	var s Summary
	var rDebraNone, rPlusNone, rPlusDebra, rDebraHP, rPlusHP []float64
	for _, pr := range results {
		for _, th := range pr.Panel.Threads {
			none, okN := pr.Results[recordmgr.SchemeNone][th]
			debra, okD := pr.Results[recordmgr.SchemeDEBRA][th]
			plus, okP := pr.Results[recordmgr.SchemeDEBRAPlus][th]
			hpres, okH := pr.Results[recordmgr.SchemeHP][th]
			if okN && okD && none.MopsPerSec > 0 {
				rDebraNone = append(rDebraNone, debra.MopsPerSec/none.MopsPerSec)
			}
			if okN && okP && none.MopsPerSec > 0 {
				rPlusNone = append(rPlusNone, plus.MopsPerSec/none.MopsPerSec)
			}
			if okD && okP && debra.MopsPerSec > 0 {
				rPlusDebra = append(rPlusDebra, plus.MopsPerSec/debra.MopsPerSec)
			}
			if okD && okH && hpres.MopsPerSec > 0 {
				rDebraHP = append(rDebraHP, debra.MopsPerSec/hpres.MopsPerSec)
			}
			if okP && okH && hpres.MopsPerSec > 0 {
				rPlusHP = append(rPlusHP, plus.MopsPerSec/hpres.MopsPerSec)
			}
			s.Samples++
		}
	}
	s.DebraVsNone = mean(rDebraNone)
	s.DebraPlusVsNone = mean(rPlusNone)
	s.DebraPlusVsDebra = mean(rPlusDebra)
	s.DebraVsHP = mean(rDebraHP)
	s.DebraPlusVsHP = mean(rPlusHP)
	return s
}

// RenderSummary renders the headline comparison next to the paper's claims.
func RenderSummary(s Summary) string {
	var sb strings.Builder
	sb.WriteString("Headline comparisons (geometric expectations from the paper in parentheses)\n")
	fmt.Fprintf(&sb, "  DEBRA  vs None : %.2fx   (paper: ~0.92x-1.0x, i.e. 4-12%% overhead, sometimes faster)\n", s.DebraVsNone)
	fmt.Fprintf(&sb, "  DEBRA+ vs None : %.2fx   (paper: ~0.90x, i.e. ~10%% overhead)\n", s.DebraPlusVsNone)
	fmt.Fprintf(&sb, "  DEBRA+ vs DEBRA: %.2fx   (paper: ~0.975x, i.e. ~2.5%% overhead)\n", s.DebraPlusVsDebra)
	fmt.Fprintf(&sb, "  DEBRA  vs HP   : %.2fx   (paper: ~1.8x)\n", s.DebraVsHP)
	fmt.Fprintf(&sb, "  DEBRA+ vs HP   : %.2fx   (paper: ~1.75x)\n", s.DebraPlusVsHP)
	fmt.Fprintf(&sb, "  samples: %d\n", s.Samples)
	return sb.String()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

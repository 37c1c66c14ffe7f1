package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/ds/hashmap"
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
	// InitialBuckets pre-sizes the hash map's table (hashmap panels only;
	// 0 uses the package default and exercises incremental resizing).
	InitialBuckets int
	// Shards, Placement and RetireBatch configure the sharded reclamation
	// domains and deferred-retire batching of every cell in the panel.
	Shards      int
	Placement   string
	RetireBatch int
	// ChurnOps makes every cell's workers cycle their thread slot
	// (release + acquire) every ChurnOps operations — goroutine churn over
	// the slot registry (0 = each worker keeps its slot for the trial).
	ChurnOps int
	// Partitions, ServiceBurst and ServiceDist configure service panels
	// (DataStructure == DSService); see the Config fields of the same names.
	// They are deliberately NOT part of the trend gate's row identity —
	// service panels encode them in the Title instead, keeping every
	// pre-service baseline row's key stable.
	Partitions   int
	ServiceBurst int
	ServiceDist  string
	// PipelineDepth configures the pipelined service panels (experiment 12);
	// see the Config field of the same name. Like the other service axes it is
	// deliberately NOT part of the trend gate's row identity — the pipeline
	// panels encode the depth in the Title instead, keeping every pre-pipeline
	// baseline row's key stable.
	PipelineDepth int
	// StallThreads, ChaosStallEvery and ChaosKillEvery configure the fault
	// panels (experiment 11); see the Config fields of the same names. Like
	// the service axes they are NOT part of the trend gate's row identity —
	// the fault panels encode them in the Title, keeping every pre-fault
	// baseline row's key stable.
	StallThreads    int
	ChaosStallEvery int
	ChaosKillEvery  int
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
	// Quick shrinks key ranges and the thread sweep so the whole suite runs
	// in seconds (used by tests and the default CLI invocation).
	Quick bool
	// Seed for workload generators.
	Seed int64
	// DataStructure selects the structure driven by MemoryExperiment
	// (default DSBST, the paper's configuration; DSHashMap is also
	// supported since it runs every scheme the experiment compares).
	DataStructure string
	// Shards, Placement and RetireBatch apply the sharded-domain and
	// deferred-retire knobs to every trial of the run (the -shards,
	// -placement and -retirebatch CLI flags). The sharding experiment sweeps
	// its own axes and ignores the corresponding Options values.
	Shards      int
	Placement   string
	RetireBatch int
	// ChurnOps applies goroutine churn (slot release + acquire every
	// ChurnOps operations) to every trial (the -churn CLI flag); the churn
	// experiment sweeps its own axis and ignores this value.
	ChurnOps int
}

// DefaultOptions returns options that mirror the paper's setup (scaled to
// this machine) with a reduced per-trial duration.
func DefaultOptions() Options {
	return Options{Duration: 500 * time.Millisecond, Seed: 1}
}

// QuickOptions returns options for smoke runs and tests.
func QuickOptions() Options {
	return Options{Duration: 60 * time.Millisecond, MaxThreads: 4, Quick: true, Seed: 1}
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

// mix returns a workload with the panel's key range applied.
func withRange(w Workload, keyRange int64) Workload {
	w.KeyRange = keyRange
	return w
}

// Experiment identifiers.
const (
	Experiment1 = 1 // reclamation overhead without reuse (Figure 8 left)
	Experiment2 = 2 // bump allocator + pool (Figure 8 right, Figure 9 left)
	Experiment3 = 3 // heap allocator + pool (Figure 10)
	// ExperimentHashMap is not a paper figure: it runs the lock-free hash
	// map — the module's proof that the Record Manager generalises beyond
	// the paper's own benchmarks — across all six schemes, several key
	// ranges and two table-sizing regimes.
	ExperimentHashMap = 4
	// ExperimentSharding is the sharded-domain / batched-retirement
	// ablation (beyond the paper): the update-heavy hash map panel repeated
	// over a sweep of shard counts and retire-batch sizes, so the scaling
	// effect of partitioning the reclamation domains is measurable per
	// scheme and thread count.
	ExperimentSharding = 5
	// ExperimentHotPath sweeps the Record Manager's per-operation microcosts
	// per scheme (beyond the paper): a pin/unpin probe (LeaveQstate +
	// EnterQstate through a thread handle) and an allocate/retire round-trip
	// probe (pin + Allocate + Retire + unpin). Every probe "operation" is one
	// primitive sequence, so a cell's Mops/s is the inverse of the per-op
	// constant that Hart et al.'s reclamation study shows dominates scheme
	// comparisons — the quantity the single-writer counters and thread
	// handles exist to shrink.
	ExperimentHotPath = 7
	// ExperimentChurn is the goroutine-churn ablation of the dynamic
	// thread-slot registry (beyond the paper): the update-heavy hash map
	// panel with the workers bound dynamically, releasing and re-acquiring
	// their thread slot every ChurnOps operations — so at throughput T the
	// trial performs T/ChurnOps acquire/release cycles per second per
	// worker — swept over all six schemes and two churn cadences. Cells
	// report throughput under churn plus the measured acquire+release
	// latency (churn_ns_per_cycle in the JSON), which is what a server
	// binding request goroutines to slots actually pays.
	ExperimentChurn = 8
)

// ChurnOpsSweep is the slot-cycle cadences ExperimentChurn covers: a hot
// cadence (every 64 operations) and a mild one. Fixed rather than
// machine-derived so smoke rows match across machines for the trend gate.
var ChurnOpsSweep = []int{64, 1024}

// ExperimentPanels returns the panels of the given experiment, mirroring the
// rows of Figures 8 and 10: BST with key ranges 10^6 and 10^4 and the skip
// list with key range 2*10^5, each under the 50i-50d and 25i-25d-50s mixes.
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
	case ExperimentHashMap:
		return HashMapPanels(opts), nil
	case ExperimentSharding:
		return ShardingPanels(opts), nil
	case ExperimentHotPath:
		return HotPathPanels(opts), nil
	case ExperimentChurn:
		return ChurnPanels(opts), nil
	case ExperimentService:
		return ServicePanels(opts), nil
	case ExperimentFaults:
		return FaultPanels(opts), nil
	case ExperimentPipeline:
		return PipelinePanels(opts), nil
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
				Shards:        opts.Shards,
				Placement:     opts.Placement,
				RetireBatch:   opts.RetireBatch,
				ChurnOps:      opts.ChurnOps,
			})
		}
	}
	return panels, nil
}

// HashMapPanels returns the hash map panel family (beyond the paper): the
// update-heavy and read-heavy mixes over a large and a small key range with
// the table pre-sized to the expected population, plus a grow-from-default
// regime on the small range where incremental resizing (dummy splicing and
// table doubling) happens inside the measured phase. The grow regime skips
// the prefill: prefilling would grow the table to its final size before the
// clock starts, which is exactly the pre-sized regime again.
func HashMapPanels(opts Options) []Panel {
	const figure = "Hash map panels (beyond the paper), Experiment 4"
	type shape struct {
		keyRange int64
		presize  bool
		label    string
	}
	shapes := []shape{
		{1_000_000, true, "pre-sized"},
		{10_000, true, "pre-sized"},
		{10_000, false, "grow-from-default"},
	}
	mixes := []Workload{MixUpdateHeavy, MixReadHeavy}
	var panels []Panel
	for _, sh := range shapes {
		for _, mix := range mixes {
			w := withRange(mix, opts.scaleRange(sh.keyRange))
			initial := 0
			if sh.presize {
				// Half the key range is resident after prefill; size the
				// table for it at the default load factor.
				initial = int(w.KeyRange / 2 / hashmap.DefaultMaxLoad)
			} else {
				w.PrefillFraction = 0
			}
			panels = append(panels, Panel{
				Figure: figure,
				Title: fmt.Sprintf("%s range [0,%d) %di-%dd %s",
					DSHashMap, w.KeyRange, w.InsertPct, w.DeletePct, sh.label),
				DataStructure:  DSHashMap,
				Workload:       w,
				Allocator:      recordmgr.AllocBump,
				UsePool:        true,
				Schemes:        SupportedSchemes(DSHashMap),
				Threads:        opts.threads(),
				InitialBuckets: initial,
				Shards:         opts.Shards,
				Placement:      opts.Placement,
				RetireBatch:    opts.RetireBatch,
				ChurnOps:       opts.ChurnOps,
			})
		}
	}
	return panels
}

// ShardingSweep returns the shard counts swept by ExperimentSharding on this
// machine (see core.DefaultShardSweep).
func ShardingSweep() []int { return core.DefaultShardSweep() }

// ShardingPanels returns the sharded-domain / batched-retirement ablation:
// the update-heavy hash map panel (pre-sized table, so reclamation — not
// resizing — dominates) repeated for every (shards, retire batch) point of
// the sweep. Schemes with shared reclamation state (EBR, QSBR) are where
// sharding moves the needle; DEBRA and HP are included as the distributed
// baselines the paper's argument predicts to be insensitive.
func ShardingPanels(opts Options) []Panel {
	const figure = "Sharded domains x batched retirement (beyond the paper), Experiment 5"
	w := withRange(MixUpdateHeavy, opts.scaleRange(100_000))
	initial := int(w.KeyRange / 2 / hashmap.DefaultMaxLoad)
	schemes := []string{
		recordmgr.SchemeEBR, recordmgr.SchemeQSBR, recordmgr.SchemeDEBRA, recordmgr.SchemeHP,
	}
	batches := []int{0, blockbag.BlockSize}
	var panels []Panel
	for _, shards := range ShardingSweep() {
		for _, batch := range batches {
			panels = append(panels, Panel{
				Figure: figure,
				Title: fmt.Sprintf("%s range [0,%d) %di-%dd shards=%d batch=%d",
					DSHashMap, w.KeyRange, w.InsertPct, w.DeletePct, shards, batch),
				DataStructure:  DSHashMap,
				Workload:       w,
				Allocator:      recordmgr.AllocBump,
				UsePool:        true,
				Schemes:        schemes,
				Threads:        opts.threads(),
				InitialBuckets: initial,
				Shards:         shards,
				Placement:      opts.Placement,
				RetireBatch:    batch,
			})
		}
	}
	return panels
}

// HotPathPanels returns the per-op microcost probes of ExperimentHotPath:
// one panel per probe kind, all schemes as columns. The pin/unpin probe runs
// every scheme; the allocate/retire probe excludes the leaking baseline
// ("none" never frees, so an unbounded-allocation microbenchmark would
// measure the allocator's slab growth, not the scheme). Probes use the
// trial's sharding/batching knobs like every other experiment, so the
// microcosts are measured in the same configuration the hash map panels run.
func HotPathPanels(opts Options) []Panel {
	const figure = "Hot-path per-op microcosts (beyond the paper), Experiment 7"
	w := Workload{InsertPct: 100, DeletePct: 0, KeyRange: 1, PrefillFraction: 0}
	kinds := []struct {
		ds      string
		label   string
		schemes []string
	}{
		{DSHotPathPin, "pin/unpin", SupportedSchemes(DSHashMap)},
		{DSHotPathAlloc, "alloc+retire round-trip", []string{
			recordmgr.SchemeEBR, recordmgr.SchemeQSBR, recordmgr.SchemeDEBRA,
			recordmgr.SchemeDEBRAPlus, recordmgr.SchemeHP,
		}},
	}
	var panels []Panel
	for _, k := range kinds {
		panels = append(panels, Panel{
			Figure:        figure,
			Title:         fmt.Sprintf("%s %s", k.ds, k.label),
			DataStructure: k.ds,
			Workload:      w,
			Allocator:     recordmgr.AllocBump,
			UsePool:       true,
			Schemes:       k.schemes,
			Threads:       opts.threads(),
			Shards:        opts.Shards,
			Placement:     opts.Placement,
			RetireBatch:   opts.RetireBatch,
			ChurnOps:      opts.ChurnOps,
		})
	}
	return panels
}

// ChurnPanels returns the goroutine-churn ablation of the dynamic
// thread-slot registry: the update-heavy hash map panel (pre-sized table,
// so reclamation — not resizing — dominates) with dynamically bound workers
// cycling their slots, one panel per cadence of ChurnOpsSweep, across all
// six schemes. Slot capacity equals the thread count, so every release is
// followed by a genuine free-list round-trip; the epoch schemes' occupancy
// fast paths see the vacancy windows every cycle.
func ChurnPanels(opts Options) []Panel {
	const figure = "Goroutine churn over the slot registry (beyond the paper), Experiment 8"
	w := withRange(MixUpdateHeavy, opts.scaleRange(100_000))
	initial := int(w.KeyRange / 2 / hashmap.DefaultMaxLoad)
	var panels []Panel
	for _, churn := range ChurnOpsSweep {
		panels = append(panels, Panel{
			Figure: figure,
			Title: fmt.Sprintf("%s range [0,%d) %di-%dd churn=%d",
				DSHashMap, w.KeyRange, w.InsertPct, w.DeletePct, churn),
			DataStructure:  DSHashMap,
			Workload:       w,
			Allocator:      recordmgr.AllocBump,
			UsePool:        true,
			Schemes:        SupportedSchemes(DSHashMap),
			Threads:        opts.threads(),
			InitialBuckets: initial,
			Shards:         opts.Shards,
			Placement:      opts.Placement,
			RetireBatch:    opts.RetireBatch,
			ChurnOps:       churn,
		})
	}
	return panels
}

// RunPanel measures every cell of a panel.
func RunPanel(p Panel, opts Options) PanelResult {
	out := PanelResult{Panel: p, Results: map[string]map[int]Result{}}
	for _, scheme := range p.Schemes {
		out.Results[scheme] = map[int]Result{}
		for _, threads := range p.Threads {
			cfg := Config{
				DataStructure:   p.DataStructure,
				Scheme:          scheme,
				Threads:         threads,
				Duration:        opts.Duration,
				Workload:        p.Workload,
				Allocator:       p.Allocator,
				UsePool:         p.UsePool,
				Seed:            opts.Seed,
				InitialBuckets:  p.InitialBuckets,
				Shards:          p.Shards,
				Placement:       p.Placement,
				RetireBatch:     p.RetireBatch,
				ChurnOps:        p.ChurnOps,
				Partitions:      p.Partitions,
				ServiceBurst:    p.ServiceBurst,
				ServiceDist:     p.ServiceDist,
				PipelineDepth:   p.PipelineDepth,
				StallThreads:    p.StallThreads,
				ChaosStallEvery: p.ChaosStallEvery,
				ChaosKillEvery:  p.ChaosKillEvery,
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

// MergeBestResults folds repeated sweeps of the same experiment list into
// one result set, keeping each cell's best-throughput run (the -repeat CLI
// flag). Sweep-level repetition — rerunning the whole sweep rather than
// each trial back-to-back — is deliberate: a noisy machine's slow episodes
// last seconds to minutes, so immediate repeats of one cell all land inside
// the same episode, while repeats a full sweep apart straddle it. Errors
// from every sweep are concatenated, so an intermittent trial failure still
// fails a gated run. The first sweep is mutated and returned.
func MergeBestResults(sweeps ...[]PanelResult) ([]PanelResult, error) {
	if len(sweeps) == 0 {
		return nil, fmt.Errorf("bench: no sweeps to merge")
	}
	out := sweeps[0]
	for _, sweep := range sweeps[1:] {
		if len(sweep) != len(out) {
			return nil, fmt.Errorf("bench: merging sweeps of different shapes: %d panels vs %d", len(sweep), len(out))
		}
		for i := range sweep {
			if sweep[i].Panel.Title != out[i].Panel.Title || sweep[i].Panel.Figure != out[i].Panel.Figure {
				return nil, fmt.Errorf("bench: merging sweeps of different shapes: panel %d is %q vs %q",
					i, sweep[i].Panel.Title, out[i].Panel.Title)
			}
			for scheme, byThreads := range sweep[i].Results {
				dst, ok := out[i].Results[scheme]
				if !ok {
					dst = map[int]Result{}
					out[i].Results[scheme] = dst
				}
				for threads, r := range byThreads {
					if cur, ok := dst[threads]; !ok || r.Throughput > cur.Throughput {
						dst[threads] = r
					}
				}
			}
			out[i].Errors = append(out[i].Errors, sweep[i].Errors...)
		}
	}
	return out, nil
}

// RenderThroughputTable renders a panel result as an aligned text table of
// millions of operations per second (the paper's y axis), one row per
// thread count and one column per scheme.
func RenderThroughputTable(pr PanelResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%s  (Mops/s; allocator=%s pool=%v",
		pr.Panel.Figure, pr.Panel.Title, allocName(pr.Panel.Allocator), pr.Panel.UsePool)
	if pr.Panel.Shards > 1 || pr.Panel.RetireBatch > 0 {
		fmt.Fprintf(&sb, " shards=%d batch=%d", pr.Panel.Shards, pr.Panel.RetireBatch)
	}
	if pr.Panel.ChurnOps > 0 {
		fmt.Fprintf(&sb, " churn=%d", pr.Panel.ChurnOps)
	}
	sb.WriteString(")\n")
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
	for _, err := range pr.Errors {
		fmt.Fprintf(&sb, "error: %v\n", err)
	}
	return sb.String()
}

// RenderCSV renders a panel result as CSV rows. The unreclaimed column is
// the true retired-but-not-freed count (limbo + deferred-retire buffers);
// limbo alone understates it under batching.
func RenderCSV(pr PanelResult, includeHeader bool) string {
	var sb strings.Builder
	if includeHeader {
		sb.WriteString("figure,title,scheme,threads,shards,retire_batch,churn_ops,mops,allocated_bytes,retired,freed,limbo,unreclaimed,neutralizations\n")
	}
	for _, s := range pr.Panel.Schemes {
		for _, th := range pr.Panel.Threads {
			r, ok := pr.Results[s][th]
			if !ok {
				continue
			}
			fmt.Fprintf(&sb, "%q,%q,%s,%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%d\n",
				pr.Panel.Figure, pr.Panel.Title, s, th, r.Config.Shards, r.Config.RetireBatch, r.Config.ChurnOps,
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
// Unreclaimed is the end-of-trial retired-but-not-freed record count
// (scheme limbo + deferred-retire buffers) — the reclamation component of
// the footprint; reporting scheme limbo alone understates it whenever
// batching is enabled.
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
	ds := opts.DataStructure
	if ds == "" {
		ds = DSBST
	}
	switch ds {
	case DSBST, DSHashMap:
	default:
		// The experiment compares DEBRA, DEBRA+ and HP, so the structure
		// must support all three (the lock-based skip list cannot run the
		// neutralizing DEBRA+).
		return nil, nil, fmt.Errorf("bench: MemoryExperiment supports %s and %s, got %q", DSBST, DSHashMap, ds)
	}
	var rows []MemoryFootprintRow
	for _, threads := range opts.threads() {
		row := MemoryFootprintRow{
			Threads: threads,
			Bytes:   map[string]int64{}, Neut: map[string]int64{}, Unreclaimed: map[string]int64{},
		}
		for _, scheme := range schemes {
			cfg := Config{
				DataStructure: ds,
				Scheme:        scheme,
				Threads:       threads,
				Duration:      opts.Duration,
				Workload:      withRange(MixUpdateHeavy, keyRange),
				Allocator:     recordmgr.AllocBump,
				UsePool:       true,
				Seed:          opts.Seed,
				Shards:        opts.Shards,
				Placement:     opts.Placement,
				RetireBatch:   opts.RetireBatch,
				ChurnOps:      opts.ChurnOps,
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

// RenderMemoryTable renders the Figure 9 (right) reproduction. ds names the
// data structure the rows were measured with ("" defaults to the paper's
// BST).
func RenderMemoryTable(rows []MemoryFootprintRow, schemes []string, ds string) string {
	if ds == "" {
		ds = DSBST
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9 (right): memory allocated for records (MB), %s range [0,1e4), 50i-50d\n", ds)
	fmt.Fprintf(&sb, "(unreclaimed = retired-but-not-freed records at the end of the trial:\n")
	fmt.Fprintf(&sb, " scheme limbo + deferred-retire buffers)\n")
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

// SortedSchemes returns the schemes of a panel result in a stable order
// (helper for deterministic output in tests).
func SortedSchemes(pr PanelResult) []string {
	out := append([]string(nil), pr.Panel.Schemes...)
	sort.Strings(out)
	return out
}

// Command reclaimbench regenerates the paper's evaluation: it runs the
// requested experiment (1, 2 or 3), the hash map panels (4), the sharding
// ablation (5), the hot-path microcosts (7), the goroutine-churn (8),
// KV-service (9), fault-injection (11) and pipelined-service (12)
// experiments, the Figure 9
// memory-footprint measurement, or the headline summary, and prints one
// throughput table per figure panel.
//
// Examples:
//
//	reclaimbench -experiment 1                 # Figure 8 (left)
//	reclaimbench -experiment 2 -threads 64     # Figure 8 (right) + Figure 9 (left) sweep
//	reclaimbench -experiment 3 -duration 2s    # Figure 10
//	reclaimbench -experiment hashmap           # hash map panels, all six schemes
//	reclaimbench -experiment hashmap -shards 4 # ... over 4 sharded reclamation domains
//	reclaimbench -experiment shards            # shard x batch ablation sweep
//	reclaimbench -experiment hotpath           # per-op microcosts (pin, alloc+retire)
//	reclaimbench -experiment churn             # goroutine churn over the slot registry
//	reclaimbench -experiment service           # KV service over loopback TCP (p50/p99/p999)
//	reclaimbench -experiment faults            # stalled threads + chaos service panel
//	reclaimbench -experiment pipeline          # pipelined KV service, depth sweep + allocs/op
//	reclaimbench -experiment hashmap -churn 256  # ... any experiment under slot churn
//	reclaimbench -experiment hashmap -cpuprofile cpu.pprof  # profile the trials
//	reclaimbench -experiment memory            # Figure 9 (right)
//	reclaimbench -experiment summary           # headline ratios from Experiment 2
//	reclaimbench -experiment 2 -csv            # machine-readable CSV
//	reclaimbench -experiment hashmap,churn -json  # merged JSON (the CI artifact)
//
// The -shards, -placement, -retirebatch and -churn flags apply the
// sharded-domain, deferred-retirement and goroutine-churn knobs to every
// trial of experiments 1-4, 7 and memory; the "shards" and "churn"
// experiments sweep their own axes. Several experiments may be given comma-separated; their panels are
// concatenated into one report. -repeat N runs the whole sweep N times and
// reports each cell's best-throughput run — repeats of any one cell land a
// full sweep apart, straddling a noisy machine's slow episodes — so the
// committed-baseline gate compares best-of-N cells instead of single noisy
// samples (the bench-smoke target uses it).
//
// -cpuprofile and -memprofile write pprof profiles covering the whole run
// (all trials of the invocation), so hot-path regressions spotted by the
// bench-diff gate can be diagnosed from the same binary that measured them.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	var (
		experiment  = flag.String("experiment", "2", "experiment(s) to run, comma-separated: 1, 2, 3, 4|hashmap, 5|shards, 7|hotpath, 8|churn, 9|service, 11|faults, 12|pipeline, memory, or summary")
		duration    = flag.Duration("duration", 500*time.Millisecond, "duration of each trial")
		maxThreads  = flag.Int("threads", 0, "maximum thread count of the sweep (0 = 2 x NumCPU)")
		quick       = flag.Bool("quick", false, "shrink key ranges and the thread sweep for a fast smoke run")
		csv         = flag.Bool("csv", false, "emit CSV instead of text tables")
		jsonOut     = flag.Bool("json", false, "emit JSON instead of text tables")
		seed        = flag.Int64("seed", 1, "workload random seed")
		shards      = flag.Int("shards", 0, "sharded reclamation domains per trial (0/1 = one global domain)")
		placement   = flag.String("placement", "", "tid->shard placement policy: block or stripe")
		retireBatch = flag.Int("retirebatch", 0, "per-thread deferred-retire batch size (0 = direct retirement)")
		churn       = flag.Int("churn", 0, "goroutine churn: workers release+acquire their thread slot every N operations (0 = keep one slot for the run)")
		repeat      = flag.Int("repeat", 1, "run the whole experiment sweep N times and keep each cell's best-throughput run (suppresses scheduler-noise outliers on shared machines)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	// Profile teardown must also run on the error path: fatal() exits with
	// os.Exit, which skips defers, and a CPU profile that is never stopped
	// is truncated and unusable — on exactly the runs one wants to diagnose.
	// fatal() therefore runs the registered cleanups before exiting.
	defer runCleanups()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(fmt.Errorf("creating -cpuprofile file: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(fmt.Errorf("starting CPU profile: %w", err))
		}
		cleanups = append(cleanups, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memprofile != "" {
		path := *memprofile
		cleanups = append(cleanups, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reclaimbench: creating -memprofile file:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the live set before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "reclaimbench: writing heap profile:", err)
			}
		})
	}

	if _, err := core.ParsePlacement(*placement); err != nil {
		fatal(err)
	}
	if *churn < 0 {
		fatal(fmt.Errorf("-churn must be >= 0, got %d", *churn))
	}
	if *repeat < 1 {
		fatal(fmt.Errorf("-repeat must be >= 1, got %d", *repeat))
	}
	opts := bench.Options{
		Duration: *duration, MaxThreads: *maxThreads, Quick: *quick, Seed: *seed,
		Shards: *shards, Placement: *placement, RetireBatch: *retireBatch,
		ChurnOps: *churn,
	}

	names := strings.Split(*experiment, ",")
	if len(names) > 1 {
		for _, name := range names {
			if name == "memory" || name == "summary" {
				fatal(fmt.Errorf("experiment %q cannot be combined with others", name))
			}
		}
	}

	switch names[0] {
	case "1", "2", "3", "4", "hashmap", "5", "shards", "7", "hotpath", "8", "churn", "9", "service", "11", "faults", "12", "pipeline":
		var exps []int
		tabular := false
		seen := map[int]bool{}
		for _, name := range names {
			exp := 0
			switch name {
			case "hashmap":
				exp = bench.ExperimentHashMap
			case "shards":
				exp = bench.ExperimentSharding
			case "hotpath":
				exp = bench.ExperimentHotPath
			case "churn":
				exp = bench.ExperimentChurn
			case "service":
				exp = bench.ExperimentService
			case "faults", "11":
				exp = bench.ExperimentFaults
			case "pipeline", "12":
				exp = bench.ExperimentPipeline
			case "1", "2", "3", "4", "5", "7", "8", "9":
				exp = int(name[0] - '0')
			default:
				fatal(fmt.Errorf("unknown experiment %q in list", name))
			}
			if seen[exp] {
				// Duplicates (or an alias of a numeric id) would emit rows
				// with identical identities, which the trend gate's keyed
				// matching silently collapses.
				fatal(fmt.Errorf("experiment %q appears more than once in the list", name))
			}
			seen[exp] = true
			if exp != bench.ExperimentHashMap && exp != bench.ExperimentSharding &&
				exp != bench.ExperimentHotPath && exp != bench.ExperimentChurn &&
				exp != bench.ExperimentService && exp != bench.ExperimentFaults &&
				exp != bench.ExperimentPipeline {
				tabular = true
			}
			exps = append(exps, exp)
		}
		// -repeat reruns the whole sweep, not each trial in place: a noisy
		// machine's slow episodes outlast back-to-back repeats of one cell,
		// but not a full sweep between repeats (see MergeBestResults).
		var sweeps [][]bench.PanelResult
		for s := 0; s < *repeat; s++ {
			var results []bench.PanelResult
			for _, exp := range exps {
				res, err := bench.RunExperiment(exp, opts)
				if err != nil {
					fatal(err)
				}
				results = append(results, res...)
			}
			sweeps = append(sweeps, results)
		}
		results, err := bench.MergeBestResults(sweeps...)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			rep := bench.BuildJSONReport(results)
			out, err := rep.Render()
			if err != nil {
				fatal(err)
			}
			fmt.Print(out)
			// The JSON mode is the CI gate: an empty or error-carrying
			// report must fail the job, not archive a green artifact.
			if rep.RowCount == 0 {
				fatal(fmt.Errorf("no cells were measured"))
			}
			if len(rep.Errors) > 0 {
				fatal(fmt.Errorf("%d trials failed (see the errors field)", len(rep.Errors)))
			}
			return
		}
		for i, pr := range results {
			if *csv {
				fmt.Print(bench.RenderCSV(pr, i == 0))
			} else {
				fmt.Println(bench.RenderThroughputTable(pr))
			}
		}
		if !*csv && len(names) == 1 && tabular {
			// The headline summary compares the paper's schemes; the hash
			// map panels include schemes the paper does not quote ratios for.
			fmt.Println(bench.RenderSummary(bench.Summarize(results)))
		}
	case "memory":
		rows, schemes, err := bench.MemoryExperiment(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderMemoryTable(rows, schemes, ""))
	case "summary":
		results, err := bench.RunExperiment(bench.Experiment2, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderSummary(bench.Summarize(results)))
	default:
		fatal(fmt.Errorf("unknown experiment %q (want 1, 2, 3, 4, hashmap, 5, shards, 7, hotpath, 8, churn, 9, service, 11, faults, 12, pipeline, memory or summary)", *experiment))
	}
}

// cleanups runs (last-in-first-out) before any exit, normal or fatal.
var cleanups []func()

func runCleanups() {
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	cleanups = nil
}

func fatal(err error) {
	runCleanups()
	fmt.Fprintln(os.Stderr, "reclaimbench:", err)
	os.Exit(1)
}

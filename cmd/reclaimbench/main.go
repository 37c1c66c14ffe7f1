// Command reclaimbench regenerates the paper's evaluation: the throughput
// panels of Experiments 1–3, the Figure 9 memory footprint, the headline
// summary, and the stalled-thread probe behind the bounded-garbage claim.
// Every other measurement of the repository is `go run ./benchmark`
// (benchmark/README.md).
//
// Examples:
//
//	reclaimbench -experiment 1                 # Figure 8 (left)
//	reclaimbench -experiment 2 -threads 64     # Figure 8 (right) + Figure 9 (left) sweep
//	reclaimbench -experiment 3 -duration 2s    # Figure 10
//	reclaimbench -experiment memory            # Figure 9 (right)
//	reclaimbench -experiment summary           # headline ratios from Experiment 2
//	reclaimbench -experiment faults            # stalled threads: bounded or UNBOUNDED per scheme
//	reclaimbench -experiment 2 -csv            # machine-readable CSV
//	reclaimbench -experiment 1 -cpuprofile cpu.pprof  # profile the trials
//
// -cpuprofile and -memprofile write pprof profiles covering the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
)

const experiments = "1, 2, 3, faults, memory or summary"

func main() {
	var (
		experiment = flag.String("experiment", "2", "experiment to run: "+experiments)
		duration   = flag.Duration("duration", 500*time.Millisecond, "duration of each trial")
		maxThreads = flag.Int("threads", 0, "maximum thread count of the sweep (0 = 2 x NumCPU)")
		quick      = flag.Bool("quick", false, "shrink key ranges for a fast smoke run")
		csv        = flag.Bool("csv", false, "emit CSV instead of text tables")
		seed       = flag.Int64("seed", 1, "workload random seed")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
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

	opts := bench.Options{Duration: *duration, MaxThreads: *maxThreads, Quick: *quick, Seed: *seed}
	switch *experiment {
	case "1", "2", "3", "faults":
		exp := bench.ExperimentFaults
		if *experiment != "faults" {
			exp = int((*experiment)[0] - '0')
		}
		results, err := bench.RunExperiment(exp, opts)
		if err != nil {
			fatal(err)
		}
		switch {
		case *csv:
			for i, pr := range results {
				fmt.Print(bench.RenderCSV(pr, i == 0))
			}
		case exp == bench.ExperimentFaults:
			fmt.Println(bench.RenderFaults(results))
		default:
			for _, pr := range results {
				fmt.Println(bench.RenderThroughputTable(pr))
			}
			fmt.Println(bench.RenderSummary(bench.Summarize(results)))
		}
	case "memory":
		rows, schemes, err := bench.MemoryExperiment(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderMemoryTable(rows, schemes))
	case "summary":
		results, err := bench.RunExperiment(bench.Experiment2, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderSummary(bench.Summarize(results)))
	default:
		fatal(fmt.Errorf("unknown experiment %q (want %s)", *experiment, experiments))
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

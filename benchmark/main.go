// Command benchmark is the repository's benchmark: four closed-loop
// workloads, eight end-to-end metrics, and a separate traced run that yields
// the per-layer metrics. README.md beside this file defines every workload
// and metric; BENCHMARK.json at the repository root is the contract a driver
// runs it by.
//
//	go run ./benchmark -seed 1                 every workload, end-to-end metrics
//	go run ./benchmark -trace -seed 1          every workload, per-layer metrics + span files
//	go run ./benchmark -calibrate 10           ten interleaved suites, noise table
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                           one workload in this process; the last
//	                                           line of output is the result object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// procs is the GOMAXPROCS every run is pinned to: the benchmark's workloads
// have at most two clients, and the box it is calibrated on has two cores.
const procs = 2

// result is the object a single-workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is what a run leaves in benchmark/out beside the result line, so
// a noisy set can be explained afterwards.
type runRecord struct {
	Workload           string               `json:"workload"`
	Seed               uint64               `json:"seed"`
	NumCPU             int                  `json:"nproc"`
	GOMAXPROCS         int                  `json:"gomaxprocs"`
	GoVersion          string               `json:"go_version"`
	Load1Before        float64              `json:"load1_before"`
	Load1After         float64              `json:"load1_after"`
	Builds             []map[string]float64 `json:"builds,omitempty"` // each build's medians, by metric name
	Segments           []segment            `json:"segments"`
	TracedSegments     []segment            `json:"traced_segments,omitempty"`
	UnreclaimedSamples int64                `json:"unreclaimed_samples"`
	Spans              map[string]layerTime `json:"spans,omitempty"`
	SpanFile           string               `json:"span_file,omitempty"`
	SpansDropped       int64                `json:"spans_dropped,omitempty"`
	Result             result               `json:"result"`
	Error              string               `json:"error,omitempty"`
}

func newRunRecord(s *spec, seed uint64) *runRecord {
	return &runRecord{
		Workload: s.name, Seed: seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Load1Before: loadAvg1(),
	}
}

func (r *runRecord) write(mode string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, r.Workload+"."+mode+".json"), data, 0o644)
}

// normalizeArgs lets -trace stand alone (as README.md and the issue write
// it) although the driver passes it a value: a bare -trace becomes -trace=1.
func normalizeArgs(args []string) []string {
	var out []string
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1")) {
			a = "-trace=1"
		}
		out = append(out, a)
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "run this one workload in this process and print the result object last (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same operation streams")
	seconds := fs.Int("seconds", 20, "measured segments per run; a segment is a fixed operation count sized to about one second")
	trace := fs.Int("trace", 0, "1: the traced run that prints the per-layer metrics and writes span files")
	calibrate := fs.Int("calibrate", 0, "run the suite N >= 10 times as two interleaved sets and print the noise table")
	fs.Parse(normalizeArgs(os.Args[1:]))

	if runtime.NumCPU() < procs {
		fmt.Fprintf(os.Stderr, "benchmark: %d CPU available, need %d: a closed loop of two clients cannot be measured on one\n", runtime.NumCPU(), procs)
		os.Exit(2)
	}
	if *seconds < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 2")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)

	switch {
	case *calibrate > 0:
		os.Exit(runCalibrate(*calibrate, *seed, *seconds))
	case *workload == "":
		os.Exit(runSuite(*seed, *seconds, *trace))
	}
	s := findWorkload(*workload)
	if s == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	os.Exit(runOne(s, *seed, *seconds, *trace == 1))
}

// runOne runs one workload in this process and prints its metrics and, as
// the last line, the result object. It returns the exit code: 1 when any
// operation or final check failed.
func runOne(s *spec, seed uint64, seconds int, traced bool) int {
	mode, defs, run := "e2e", endToEnd, runEndToEnd
	if traced {
		mode, defs, run = "trace", perLayer, runTraced
	}
	fmt.Printf("%s %s seed=%d segments=%d x %d ops x %d clients\n", s.name, mode, seed, seconds*segmentsPerSecond, s.segOps/segmentsPerSecond, s.workers)
	metrics, rec, out := run(s, seed, seconds)
	rec.Load1After = loadAvg1()
	rec.Result = result{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	if out.err != nil {
		rec.Error = out.err.Error()
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, out.err)
	}
	fmt.Printf("  nproc=%d gomaxprocs=%d %s load1 %.2f -> %.2f\n", rec.NumCPU, rec.GOMAXPROCS, rec.GoVersion, rec.Load1Before, rec.Load1After)
	if err := rec.write(mode); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: run record: %v\n", err)
		return 1
	}
	if metrics == nil {
		return 1 // the run broke before it had anything to report
	}
	printMetrics(defs, metrics, fmt.Sprintf("n=%d segments, %d builds", len(rec.Segments), max(len(rec.Builds), 1)))
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// Benchmarks that regenerate the paper's tables and figures through the
// testing.B interface. Each figure panel of the evaluation has a benchmark
// whose sub-benchmarks are its (scheme, thread-count) cells; every iteration
// runs one short trial and the reported custom metrics are the quantities
// the paper plots (Mops/s for the throughput figures, allocated megabytes
// for the memory figure).
//
// These benchmarks use scaled-down key ranges and short trials so that
// `go test -bench=. -benchmem` completes in minutes; the full-scale sweeps
// (key ranges 10^4/10^6/2*10^5, longer trials, full thread sweep) are
// produced by `go run ./cmd/reclaimbench`, and the measured results are
// recorded in EXPERIMENTS.md.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/recordmgr"
)

// benchDuration is the length of one trial iteration.
const benchDuration = 50 * time.Millisecond

// benchKeyRangeSmall / Large are the scaled stand-ins for the paper's
// 10^4 and 10^6 (and 2*10^5) key ranges.
const (
	benchKeyRangeSmall = 4 << 10
	benchKeyRangeLarge = 64 << 10
)

// benchThreads returns the two thread counts benchmarked per cell: one
// uncontended and one using every hardware thread.
func benchThreads() []int {
	n := runtime.NumCPU()
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}

// runCells runs one sub-benchmark per (scheme, threads) cell of a panel.
func runCells(b *testing.B, ds string, keyRange int64, mix bench.Workload, alloc recordmgr.AllocatorKind, usePool bool) {
	b.Helper()
	mix.KeyRange = keyRange
	for _, scheme := range bench.SupportedSchemes(ds) {
		for _, threads := range benchThreads() {
			name := fmt.Sprintf("%s/threads=%d", scheme, threads)
			b.Run(name, func(b *testing.B) {
				var totalOps int64
				var elapsed time.Duration
				for i := 0; i < b.N; i++ {
					res, err := bench.RunTrial(bench.Config{
						DataStructure: ds,
						Scheme:        scheme,
						Threads:       threads,
						Duration:      benchDuration,
						Workload:      mix,
						Allocator:     alloc,
						UsePool:       usePool,
						Seed:          int64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					totalOps += res.Ops
					elapsed += res.Elapsed
				}
				if elapsed > 0 {
					b.ReportMetric(float64(totalOps)/elapsed.Seconds()/1e6, "Mops/s")
				}
			})
		}
	}
}

// --- Figure 8 (left): Experiment 1, reclamation overhead without reuse ---

func BenchmarkExp1_BST_LargeRange_Update50(b *testing.B) {
	runCells(b, bench.DSBST, benchKeyRangeLarge, bench.MixUpdateHeavy, recordmgr.AllocBump, false)
}

func BenchmarkExp1_BST_SmallRange_Update50(b *testing.B) {
	runCells(b, bench.DSBST, benchKeyRangeSmall, bench.MixUpdateHeavy, recordmgr.AllocBump, false)
}

func BenchmarkExp1_BST_SmallRange_Read50(b *testing.B) {
	runCells(b, bench.DSBST, benchKeyRangeSmall, bench.MixReadHeavy, recordmgr.AllocBump, false)
}

func BenchmarkExp1_SkipList_Update50(b *testing.B) {
	runCells(b, bench.DSSkipList, benchKeyRangeSmall, bench.MixUpdateHeavy, recordmgr.AllocBump, false)
}

// --- Figure 8 (right) and Figure 9 (left): Experiment 2, bump allocator + pool ---

func BenchmarkExp2_BST_LargeRange_Update50(b *testing.B) {
	runCells(b, bench.DSBST, benchKeyRangeLarge, bench.MixUpdateHeavy, recordmgr.AllocBump, true)
}

func BenchmarkExp2_BST_SmallRange_Update50(b *testing.B) {
	runCells(b, bench.DSBST, benchKeyRangeSmall, bench.MixUpdateHeavy, recordmgr.AllocBump, true)
}

func BenchmarkExp2_BST_SmallRange_Read50(b *testing.B) {
	runCells(b, bench.DSBST, benchKeyRangeSmall, bench.MixReadHeavy, recordmgr.AllocBump, true)
}

func BenchmarkExp2_SkipList_Update50(b *testing.B) {
	runCells(b, bench.DSSkipList, benchKeyRangeSmall, bench.MixUpdateHeavy, recordmgr.AllocBump, true)
}

// BenchmarkExp2_BST_Oversubscribed64 reproduces the Figure 9 (left) regime:
// 64 worker threads on however many hardware threads this machine has.
func BenchmarkExp2_BST_Oversubscribed64(b *testing.B) {
	for _, scheme := range bench.SupportedSchemes(bench.DSBST) {
		b.Run(scheme, func(b *testing.B) {
			var totalOps int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				res, err := bench.RunTrial(bench.Config{
					DataStructure: bench.DSBST,
					Scheme:        scheme,
					Threads:       64,
					Duration:      benchDuration,
					Workload:      bench.Workload{InsertPct: 50, DeletePct: 50, KeyRange: benchKeyRangeLarge, PrefillFraction: 0.5},
					Allocator:     recordmgr.AllocBump,
					UsePool:       true,
					Seed:          int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				totalOps += res.Ops
				elapsed += res.Elapsed
			}
			if elapsed > 0 {
				b.ReportMetric(float64(totalOps)/elapsed.Seconds()/1e6, "Mops/s")
			}
		})
	}
}

// --- Figure 10: Experiment 3, heap allocator (malloc stand-in) + pool ---

func BenchmarkExp3_BST_SmallRange_Update50(b *testing.B) {
	runCells(b, bench.DSBST, benchKeyRangeSmall, bench.MixUpdateHeavy, recordmgr.AllocHeap, true)
}

func BenchmarkExp3_BST_SmallRange_Read50(b *testing.B) {
	runCells(b, bench.DSBST, benchKeyRangeSmall, bench.MixReadHeavy, recordmgr.AllocHeap, true)
}

func BenchmarkExp3_SkipList_Update50(b *testing.B) {
	runCells(b, bench.DSSkipList, benchKeyRangeSmall, bench.MixUpdateHeavy, recordmgr.AllocHeap, true)
}

// --- Figure 9 (right): memory allocated for records under oversubscription ---

func BenchmarkFig9_MemoryFootprint(b *testing.B) {
	threads := 2 * runtime.NumCPU()
	for _, scheme := range []string{recordmgr.SchemeDEBRA, recordmgr.SchemeDEBRAPlus, recordmgr.SchemeHP} {
		b.Run(fmt.Sprintf("%s/threads=%d", scheme, threads), func(b *testing.B) {
			var bytes, neut int64
			for i := 0; i < b.N; i++ {
				res, err := bench.RunTrial(bench.Config{
					DataStructure: bench.DSBST,
					Scheme:        scheme,
					Threads:       threads,
					Duration:      benchDuration,
					Workload:      bench.Workload{InsertPct: 50, DeletePct: 50, KeyRange: benchKeyRangeSmall, PrefillFraction: 0.5},
					Allocator:     recordmgr.AllocBump,
					UsePool:       true,
					Seed:          int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				bytes += res.AllocatedBytes
				neut += res.Reclaimer.Neutralizations
			}
			b.ReportMetric(float64(bytes)/float64(b.N)/(1<<20), "alloc-MB/trial")
			b.ReportMetric(float64(neut)/float64(b.N), "neutralizations/trial")
		})
	}
}

// --- Hash map panels (beyond the paper): every scheme, incl. EBR/QSBR ---

func BenchmarkHashMap_LargeRange_Update50(b *testing.B) {
	runCells(b, bench.DSHashMap, benchKeyRangeLarge, bench.MixUpdateHeavy, recordmgr.AllocBump, true)
}

func BenchmarkHashMap_SmallRange_Update50(b *testing.B) {
	runCells(b, bench.DSHashMap, benchKeyRangeSmall, bench.MixUpdateHeavy, recordmgr.AllocBump, true)
}

func BenchmarkHashMap_SmallRange_Read50(b *testing.B) {
	runCells(b, bench.DSHashMap, benchKeyRangeSmall, bench.MixReadHeavy, recordmgr.AllocBump, true)
}

// BenchmarkHashMap_GrowFromDefault measures the incremental-resize regime:
// the table starts at the package default and doubles its way up (with lazy
// dummy splicing) inside the measured phase. No prefill — prefilling would
// grow the table before the clock starts.
func BenchmarkHashMap_GrowFromDefault(b *testing.B) {
	for _, scheme := range bench.SupportedSchemes(bench.DSHashMap) {
		b.Run(scheme, func(b *testing.B) {
			var totalOps int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				res, err := bench.RunTrial(bench.Config{
					DataStructure: bench.DSHashMap,
					Scheme:        scheme,
					Threads:       runtime.NumCPU(),
					Duration:      benchDuration,
					Workload:      bench.Workload{InsertPct: 50, DeletePct: 50, KeyRange: benchKeyRangeLarge, PrefillFraction: 0},
					Allocator:     recordmgr.AllocBump,
					UsePool:       true,
					Seed:          int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				totalOps += res.Ops
				elapsed += res.Elapsed
			}
			if elapsed > 0 {
				b.ReportMetric(float64(totalOps)/elapsed.Seconds()/1e6, "Mops/s")
			}
		})
	}
}

// --- Figure 2: qualitative scheme comparison ---

func BenchmarkFigure2SchemesTable(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = core.RenderFigureTwo(recordmgr.Properties())
	}
	if len(out) == 0 {
		b.Fatal("empty table")
	}
}

// --- Reclaimer micro-benchmarks: per-operation and per-retire overhead ---

type microRec struct{ pad [4]int64 }

func BenchmarkReclaimerOperationOverhead(b *testing.B) {
	for _, scheme := range recordmgr.Schemes() {
		b.Run(scheme, func(b *testing.B) {
			mgr := recordmgr.MustBuild[microRec](recordmgr.Config{Scheme: scheme, Threads: 1, UsePool: true})
			h := mgr.AcquireHandle()
			defer mgr.ReleaseHandle(h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.LeaveQstate()
				h.EnterQstate()
			}
		})
	}
}

func BenchmarkReclaimerRetireFree(b *testing.B) {
	for _, scheme := range recordmgr.Schemes() {
		b.Run(scheme, func(b *testing.B) {
			mgr := recordmgr.MustBuild[microRec](recordmgr.Config{Scheme: scheme, Threads: 1, UsePool: true})
			h := mgr.AcquireHandle()
			defer mgr.ReleaseHandle(h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.LeaveQstate()
				h.Retire(h.Allocate())
				h.EnterQstate()
			}
		})
	}
}

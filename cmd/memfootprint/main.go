// Command memfootprint reproduces Figure 9 (right) of the paper: the total
// memory allocated for records by the BST under a 50% insert / 50% delete
// workload on key range [0, 10^4), as the number of threads grows past the
// number of hardware threads. Once threads are preempted mid-operation,
// DEBRA cannot advance its epoch and its footprint explodes; DEBRA+
// neutralizes the preempted threads and keeps the footprint bounded, close
// to hazard pointers.
//
// The per-trial knobs mirror reclaimbench's: -shards, -placement and
// -retirebatch apply the experiment 5 ablation axes, and -churn (experiment 8's axis) makes workers release and
// re-acquire their thread slot every N operations, so the footprint can be
// measured under slot churn as well as with one slot per worker for the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	var (
		duration    = flag.Duration("duration", 1*time.Second, "duration of each trial")
		maxThreads  = flag.Int("threads", 0, "maximum thread count (0 = 4 x NumCPU to force oversubscription)")
		ds          = flag.String("ds", bench.DSBST, "data structure to drive: bst (the paper's setup) or hashmap")
		shards      = flag.Int("shards", 0, "sharded reclamation domains per trial (0/1 = one global domain)")
		placement   = flag.String("placement", "", "tid->shard placement policy: block or stripe")
		retireBatch = flag.Int("retirebatch", 0, "per-thread deferred-retire batch size (0 = direct retirement)")
		churn       = flag.Int("churn", 0, "goroutine churn: workers release+acquire their thread slot every N operations (0 = keep one slot for the run)")
	)
	flag.Parse()
	if _, err := core.ParsePlacement(*placement); err != nil {
		fmt.Fprintln(os.Stderr, "memfootprint:", err)
		os.Exit(1)
	}
	if *churn < 0 {
		fmt.Fprintln(os.Stderr, "memfootprint: -churn must be >= 0, got", *churn)
		os.Exit(1)
	}
	max := *maxThreads
	if max == 0 {
		max = 4 * runtime.NumCPU()
	}
	rows, schemes, err := bench.MemoryExperiment(bench.Options{
		Duration: *duration, MaxThreads: max, Seed: 1, DataStructure: *ds,
		Shards: *shards, Placement: *placement, RetireBatch: *retireBatch,
		ChurnOps: *churn,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "memfootprint:", err)
		os.Exit(1)
	}
	fmt.Printf("GOMAXPROCS=%d, hardware threads=%d\n\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Print(bench.RenderMemoryTable(rows, schemes, *ds))
}

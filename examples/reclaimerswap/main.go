// Reclaimerswap runs the identical BST workload under every reclamation
// scheme by changing only the Record Manager construction — the paper's
// "interchange schemes by changing a single line of code" demonstration —
// and prints throughput and memory behaviour side by side.
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds/bst"
	"repro/internal/recordmgr"
)

const (
	keyRange = 1 << 14
	duration = 300 * time.Millisecond
)

func main() {
	threads := runtime.NumCPU()
	if threads < 2 {
		threads = 2
	}
	fmt.Printf("BST, %d threads, 50%% insert / 50%% delete, key range %d, %v per scheme\n\n",
		threads, keyRange, duration)
	fmt.Printf("%-8s %12s %14s %14s %12s %12s\n", "scheme", "Mops/s", "allocated", "freed", "in-limbo", "reused")

	for _, scheme := range []string{
		recordmgr.SchemeNone,
		recordmgr.SchemeEBR,
		recordmgr.SchemeQSBR,
		recordmgr.SchemeDEBRA,
		recordmgr.SchemeDEBRAPlus,
		recordmgr.SchemeHP,
	} {
		// The one line that changes between schemes:
		mgr := recordmgr.MustBuild[bst.Record[int64]](recordmgr.Config{Scheme: scheme, Threads: threads, UsePool: true})

		tree := bst.New(mgr)
		ops := run(tree, threads)
		st := mgr.Stats()
		fmt.Printf("%-8s %12.2f %14d %14d %12d %12d\n",
			scheme,
			float64(ops)/duration.Seconds()/1e6,
			st.Alloc.Allocated,
			st.Reclaimer.Freed,
			st.Reclaimer.Limbo,
			st.Pool.Reused,
		)
	}
}

// run drives the tree with an update-heavy workload and returns the number
// of completed operations.
func run(tree *bst.Tree[int64], threads int) int64 {
	// Prefill to half the key range.
	pre := tree.AcquireHandle()
	for k := int64(0); k < keyRange; k += 2 {
		pre.Insert(k, k)
	}
	tree.ReleaseHandle(pre)
	var (
		stop  atomic.Bool
		total atomic.Int64
		wg    sync.WaitGroup
	)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tree.AcquireHandle()
			defer tree.ReleaseHandle(h)
			rng := rand.New(rand.NewSource(int64(w) + 42))
			n := int64(0)
			for !stop.Load() {
				k := rng.Int63n(keyRange)
				if rng.Intn(2) == 0 {
					h.Insert(k, k)
				} else {
					h.Delete(k)
				}
				n++
			}
			total.Add(n)
		}(w)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	return total.Load()
}

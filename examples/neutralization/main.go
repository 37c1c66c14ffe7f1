// Neutralization demonstrates the difference between DEBRA and DEBRA+ that
// motivates the paper: a worker that stalls in the middle of an operation.
//
// With DEBRA, the stalled worker's epoch announcement never changes, so no
// other worker can reclaim memory: the limbo count and the allocator
// footprint grow for as long as the stall lasts. With DEBRA+, the other
// workers neutralize the stalled worker with a (simulated) signal, keep
// advancing the epoch, and memory stays bounded; when the stalled worker
// finally resumes, it is interrupted at its next checkpoint, runs its
// recovery code and simply retries its operation.
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/bst"
	"repro/internal/pool"
	"repro/internal/reclaim/debra"
	"repro/internal/reclaim/debraplus"
	"repro/internal/reclaim/epoch"
)

const (
	workers  = 4
	keyRange = 1 << 12
	runFor   = 400 * time.Millisecond
)

type rec = bst.Record[int64]

func main() {
	fmt.Println("A worker stalls mid-operation while the others keep updating the tree.")
	fmt.Println()

	limbo, footprint, neutral := runWithScheme("debra")
	fmt.Printf("DEBRA : in-limbo records at end = %8d, bytes allocated = %10d, neutralizations = %d\n",
		limbo, footprint, neutral)

	limbo, footprint, neutral = runWithScheme("debra+")
	fmt.Printf("DEBRA+: in-limbo records at end = %8d, bytes allocated = %10d, neutralizations = %d\n",
		limbo, footprint, neutral)

	fmt.Println()
	fmt.Println("DEBRA+ keeps garbage bounded by neutralizing the stalled worker (Figure 9, right).")
}

// runWithScheme runs the stall scenario and returns the final limbo size,
// allocated bytes and neutralization count.
func runWithScheme(scheme string) (limbo, bytes, neutralizations int64) {
	alloc := arena.NewBump[rec](workers, 0)
	pl := pool.New[rec](workers, alloc)
	var rcl core.Reclaimer[rec]
	switch scheme {
	case "debra":
		rcl = debra.New[rec](workers, pl, epoch.WithIncrThresh(16))
	case "debra+":
		rcl = debraplus.New[rec](workers, pl,
			epoch.WithIncrThresh(16),
			debraplus.WithSuspectThresholdBlocks(1),
			debraplus.WithScanThresholdBlocks(1))
	default:
		panic("unknown scheme " + scheme)
	}
	mgr := core.NewRecordManager[rec](alloc, pl, rcl)
	tree := bst.New(mgr)

	// One worker stalls in the middle of an operation: it acquires a slot,
	// announces the current epoch (leaves its quiescent state) and then goes
	// to sleep, exactly like a thread preempted inside a data structure
	// operation. The slot is never released — the thread never comes back.
	mgr.AcquireHandle().LeaveQstate()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tree.AcquireHandle()
			defer tree.ReleaseHandle(h)
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				k := rng.Int63n(keyRange)
				if rng.Intn(2) == 0 {
					h.Insert(k, k)
				} else {
					h.Delete(k)
				}
			}
		}(w)
	}
	time.Sleep(runFor)
	stop.Store(true)
	wg.Wait()

	st := tree.Manager().Stats()
	return st.Reclaimer.Limbo, st.Alloc.AllocatedBytes, st.Reclaimer.Neutralizations
}

package recordmgr_test

// Tests for the asynchronous reclamation pipeline: dedicated reclaimer
// goroutines (extra epoch participants) draining hand-off queues behind the
// workers, and the deterministic shutdown ordering — workers quiesce,
// buffers flush, reclaimers drain, limbo is force-freed.

import (
	"fmt"
	"repro/internal/reclaimtest"
	"sync"
	"testing"
	"time"

	"repro/internal/blockbag"
	"repro/internal/recordmgr"
)

// TestAsyncLeakFreeShutdown is the leak test the async pipeline must pass:
// after Close, every retired record has been freed — nothing stranded in
// deferred-retire buffers, hand-off queues or scheme limbo — for every
// reclaiming scheme, at reclaimer counts 1 and 2. The leaking baseline
// (none) is excluded: it never frees by design.
func TestAsyncLeakFreeShutdown(t *testing.T) {
	const threads = 4
	ops := 4000
	if testing.Short() {
		ops = 1000
	}
	for _, scheme := range recordmgr.Schemes() {
		if scheme == recordmgr.SchemeNone {
			continue
		}
		for _, reclaimers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/reclaimers=%d", scheme, reclaimers), func(t *testing.T) {
				mgr, err := recordmgr.Build[node](recordmgr.Config{
					Scheme:     scheme,
					Threads:    threads,
					UsePool:    true,
					Reclaimers: reclaimers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := mgr.AsyncReclaimers(); got != reclaimers {
					t.Fatalf("AsyncReclaimers = %d want %d", got, reclaimers)
				}
				hs := reclaimtest.AcquireSlots(threads, mgr.AcquireHandle)
				var wg sync.WaitGroup
				for tid := 0; tid < threads; tid++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						for i := 0; i < ops; i++ {
							retireOne(hs[tid])
						}
					}(tid)
				}
				wg.Wait()
				mgr.Close()
				st := mgr.Stats()
				if st.Reclaimer.Retired != int64(threads*ops) {
					t.Fatalf("retired %d want %d", st.Reclaimer.Retired, threads*ops)
				}
				if st.Reclaimer.Freed != st.Reclaimer.Retired {
					t.Fatalf("after Close: retired %d != freed %d (limbo %d, pending %d, handoff %d)",
						st.Reclaimer.Retired, st.Reclaimer.Freed,
						st.Reclaimer.Limbo, st.RetirePending, st.HandoffPending)
				}
				if st.Unreclaimed != 0 {
					t.Fatalf("after Close: unreclaimed = %d", st.Unreclaimed)
				}
				if got := mgr.AsyncSpareBlocks(); got != 0 {
					t.Fatalf("after Close: %d spare blocks still parked on the return stacks", got)
				}
			})
		}
	}
}

// TestAsyncCloseReturnsSpareBlocks: the reclaimers' spare exchange blocks
// must come back to the workers' retire-buffer block pools at Close instead
// of being dropped to the garbage collector (the shutdown half of the
// blockbag circulation property; Close used to drop them). The discarding
// sink configuration routes block recycling through the scheme's own block
// pools, which is the path that produces exchange spares.
func TestAsyncCloseReturnsSpareBlocks(t *testing.T) {
	const threads = 4
	const ops = 4000
	mgr, err := recordmgr.Build[node](recordmgr.Config{
		Scheme:     recordmgr.SchemeDEBRA,
		Threads:    threads,
		UsePool:    false, // Discard sink: frees recycle blocks scheme-side
		Reclaimers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := reclaimtest.AcquireSlots(threads, mgr.AcquireHandle)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				hs[tid].LeaveQstate()
				hs[tid].Retire(hs[tid].Allocate())
				hs[tid].EnterQstate()
			}
		}(tid)
	}
	wg.Wait()
	// Let the reclaimer drain the full-block hand-offs behind the idle
	// workers. (The partial batch tails — ops % BlockSize records per
	// worker — stay parked in the retire buffers until Close flushes them,
	// so RetirePending is legitimately non-zero here; the old wait condition
	// demanded zero and always burned its full deadline.)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := mgr.Stats()
		if st.HandoffPending == 0 && st.Reclaimer.Freed > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Steady state balances spare production against the workers' TakeSpare
	// consumption (each flush pops one), so whether any spare is parked at
	// a given instant is a race the machine's core count decides — and
	// Close's own buffer flush would pop one more per non-empty buffer
	// before DrainSpares runs. Set up a deterministic end state instead:
	// empty every retire buffer first (so Close's flushes are no-ops that
	// consume nothing), then produce one last full-block hand-off whose
	// drain parks an exchange spare that only DrainSpares can pick up.
	for tid := 0; tid < threads; tid++ {
		hs[tid].FlushRetired()
	}
	hs[0].LeaveQstate()
	for i := 0; i < blockbag.BlockSize; i++ {
		hs[0].Retire(hs[0].Allocate())
	}
	hs[0].EnterQstate() // the 256th retire flushed the batch: buffers all empty
	for time.Now().Before(deadline) {
		if mgr.Stats().HandoffPending == 0 && mgr.AsyncSpareBlocks() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := mgr.AsyncSpareBlocks(); got == 0 {
		t.Fatal("no spare block parked on the return stacks; the drain-side exchange produced nothing")
	}
	mgr.Close()
	if got := mgr.AsyncSpareBlocks(); got != 0 {
		t.Fatalf("after Close: %d spare blocks still parked", got)
	}
	if got := mgr.SparesRecovered(); got == 0 {
		t.Fatalf("Close recovered no spare blocks; the shutdown return path did not run (exchange spares were produced and must be parked on the return stacks)")
	}
}

// TestSyncCloseAlsoDrains: the same leak-freedom holds without async —
// Close flushes the buffers (pinned) and force-frees the limbo.
func TestSyncCloseAlsoDrains(t *testing.T) {
	const threads = 3
	const ops = 1500
	for _, scheme := range recordmgr.Schemes() {
		if scheme == recordmgr.SchemeNone {
			continue
		}
		t.Run(scheme, func(t *testing.T) {
			mgr, err := recordmgr.Build[node](recordmgr.Config{
				Scheme:      scheme,
				Threads:     threads,
				UsePool:     true,
				RetireBatch: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			hs := reclaimtest.AcquireSlots(threads, mgr.AcquireHandle)
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						retireOne(hs[tid])
					}
				}(tid)
			}
			wg.Wait()
			mgr.Close()
			st := mgr.Stats()
			if st.Reclaimer.Freed != st.Reclaimer.Retired || st.Unreclaimed != 0 {
				t.Fatalf("after Close: retired=%d freed=%d unreclaimed=%d",
					st.Reclaimer.Retired, st.Reclaimer.Freed, st.Unreclaimed)
			}
		})
	}
}

// TestAsyncDrainsBehindIdleWorkers: records handed off while the workers go
// idle must still reach the free sink without anyone calling Close — the
// reclaimer goroutines advance grace periods on their own (the quiescent
// workers do not block them).
func TestAsyncDrainsBehindIdleWorkers(t *testing.T) {
	for _, scheme := range []string{recordmgr.SchemeEBR, recordmgr.SchemeQSBR, recordmgr.SchemeDEBRA} {
		t.Run(scheme, func(t *testing.T) {
			mgr, err := recordmgr.Build[node](recordmgr.Config{
				Scheme:      scheme,
				Threads:     2,
				UsePool:     true,
				Reclaimers:  1,
				RetireBatch: blockbag.BlockSize,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			hs := reclaimtest.AcquireSlots(2, mgr.AcquireHandle)
			// Retire two full batches from pinned ops, then go idle.
			for tid := 0; tid < 2; tid++ {
				hs[tid].LeaveQstate()
				for i := 0; i < 2*blockbag.BlockSize; i++ {
					hs[tid].Retire(hs[tid].Allocate())
				}
				hs[tid].EnterQstate()
			}
			// The workers are quiescent; only the reclaimer goroutine can
			// make progress now. Wait (bounded) for the frees — DEBRA paces
			// its epoch advances (INCR_THRESH pin cycles per advance), so
			// this legitimately takes hundreds of reclaimer cycles.
			want := int64(4 * blockbag.BlockSize)
			deadline := time.Now().Add(15 * time.Second)
			for time.Now().Before(deadline) {
				if mgr.Stats().Reclaimer.Freed >= want {
					return
				}
				time.Sleep(time.Millisecond)
			}
			// Close would drain it; the point here is that the background
			// pipeline alone did not. Report what got stuck where.
			st := mgr.Stats()
			t.Fatalf("reclaimers did not drain behind idle workers: retired=%d freed=%d limbo=%d handoff=%d",
				st.Reclaimer.Retired, st.Reclaimer.Freed, st.Reclaimer.Limbo, st.HandoffPending)
		})
	}
}

// TestAsyncBuildValidation: the config layer rejects nonsense and defaults
// the retire batch when async is requested without one.
func TestAsyncBuildValidation(t *testing.T) {
	if _, err := recordmgr.Build[node](recordmgr.Config{
		Scheme: recordmgr.SchemeDEBRA, Threads: 1, Reclaimers: -1,
	}); err == nil {
		t.Fatal("negative Reclaimers accepted")
	}
	mgr, err := recordmgr.Build[node](recordmgr.Config{
		Scheme: recordmgr.SchemeDEBRA, Threads: 1, Reclaimers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if got := mgr.RetireBatchSize(); got != blockbag.BlockSize {
		t.Fatalf("async default RetireBatch = %d want %d", got, blockbag.BlockSize)
	}
}

// TestAsyncCloseIdempotent: Close twice is fine; stats stay consistent.
func TestAsyncCloseIdempotent(t *testing.T) {
	mgr, err := recordmgr.Build[node](recordmgr.Config{
		Scheme: recordmgr.SchemeEBR, Threads: 1, UsePool: true, Reclaimers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := reclaimtest.AcquireSlots(1, mgr.AcquireHandle)
	hs[0].LeaveQstate()
	for i := 0; i < 10; i++ {
		hs[0].Retire(hs[0].Allocate())
	}
	hs[0].EnterQstate()
	mgr.Close()
	st1 := mgr.Stats()
	mgr.Close()
	st2 := mgr.Stats()
	if st1 != st2 {
		t.Fatalf("second Close changed stats: %+v -> %+v", st1, st2)
	}
	if st2.Reclaimer.Freed != st2.Reclaimer.Retired {
		t.Fatalf("close did not drain: %+v", st2)
	}
}

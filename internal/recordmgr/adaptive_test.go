package recordmgr_test

// Lifecycle tests for the self-tuning runtime at the assembled-manager
// level: a controller moving all three levers (effective shards, retire
// batch, active reclaimers) concurrently with worker traffic must preserve
// the leak-free shutdown invariant — after Close, every retired record has
// been freed, for every reclaiming scheme.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

// TestAdaptiveLeakFreeShutdown is the controller's version of the async
// leak test: the full adaptive pipeline (sharded domains + deferred retire
// + async reclaimers + a fast-ticking controller) retires from several
// goroutines, and Close must still sequence controller stop, buffer flush
// and reclaimer drain so that Retired == Freed and nothing is stranded.
func TestAdaptiveLeakFreeShutdown(t *testing.T) {
	const threads = 4
	ops := 4000
	if testing.Short() {
		ops = 1000
	}
	for _, scheme := range recordmgr.Schemes() {
		if scheme == recordmgr.SchemeNone {
			continue // never frees by design
		}
		t.Run(scheme, func(t *testing.T) {
			mgr, err := recordmgr.Build[node](recordmgr.Config{
				Scheme:      scheme,
				Threads:     threads,
				UsePool:     true,
				Shards:      2,
				RetireBatch: 16,
				Reclaimers:  2,
				Adaptive:    true,
				// A near-pathological control period: the levers move as often
				// as the runtime allows, maximising interleavings with the
				// workers' retire traffic and the shutdown sequence.
				AdaptiveInterval: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if mgr.Controller() == nil {
				t.Fatal("Adaptive manager has no controller")
			}
			hs := reclaimtest.AcquireSlots(threads, mgr.AcquireHandle)
			var wg sync.WaitGroup
			var total atomic.Int64
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					// Keep retiring until the controller has ticked at least
					// once: on a fast machine ops iterations can finish inside
					// the first control period, and the test is about the two
					// running together.
					n := 0
					for ; n < ops || mgr.Controller().Steps() == 0; n++ {
						retireOne(hs[tid])
					}
					total.Add(int64(n))
				}(tid)
			}
			wg.Wait()
			mgr.Close()
			st := mgr.Stats()
			if st.Reclaimer.Retired != total.Load() {
				t.Fatalf("retired %d want %d", st.Reclaimer.Retired, total.Load())
			}
			if st.Reclaimer.Freed != st.Reclaimer.Retired {
				t.Fatalf("after Close: retired %d != freed %d (limbo %d, pending %d, handoff %d)",
					st.Reclaimer.Retired, st.Reclaimer.Freed,
					st.Reclaimer.Limbo, st.RetirePending, st.HandoffPending)
			}
			if st.Unreclaimed != 0 {
				t.Fatalf("after Close: unreclaimed = %d", st.Unreclaimed)
			}
			if ctrl := mgr.Controller(); ctrl.Steps() == 0 {
				t.Error("controller took no steps during the run")
			}
		})
	}
}

// TestAdaptiveConfigValidation: the adaptive knobs are rejected without
// Adaptive, and the batch bounds must be ordered.
func TestAdaptiveConfigValidation(t *testing.T) {
	base := recordmgr.Config{Scheme: recordmgr.SchemeEBR, Threads: 1, UsePool: true}

	cfg := base
	cfg.MinRetireBatch = 8
	if _, err := recordmgr.Build[node](cfg); err == nil {
		t.Error("MinRetireBatch without Adaptive was accepted")
	}
	cfg = base
	cfg.AdaptiveInterval = time.Millisecond
	if _, err := recordmgr.Build[node](cfg); err == nil {
		t.Error("AdaptiveInterval without Adaptive was accepted")
	}
	cfg = base
	cfg.Adaptive = true
	cfg.MinRetireBatch = 64
	cfg.MaxRetireBatch = 8
	if _, err := recordmgr.Build[node](cfg); err == nil {
		t.Error("MaxRetireBatch < MinRetireBatch was accepted")
	}

	// A manager with no tunable subsystems still accepts Adaptive: the
	// controller observes but has nothing to move.
	cfg = base
	cfg.Adaptive = true
	mgr, err := recordmgr.Build[node](cfg)
	if err != nil {
		t.Fatalf("Adaptive without subsystems: %v", err)
	}
	if mgr.Controller() == nil {
		t.Fatal("Adaptive manager has no controller")
	}
	mgr.Close()
}

package faultinject_test

// The chaos poison-sink stress: the standard hash-map safety harness
// (poisoned free sink, traversal visit hook, thread-private semantic model)
// run with a seeded chaos schedule of timed stalls injected at the reclaimer
// operation boundaries of every worker. Chaos must not be able to provoke a
// use-after-free, a double free, or a wrong answer — the stalls only delay
// threads, which is exactly the adversary the schemes claim to tolerate.
// Runs under -race -short in CI (timed stalls never park, so every scheme
// supports the schedule) for every scheme the hash map accepts: all but
// DEBRA+, whose neutralization is exercised by the deterministic probe tests.

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/hashmap"
	"repro/internal/faultinject"
	"repro/internal/pool"
	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

// chaosWorker adapts an acquired hashmap.Handle to the reclaimtest.Worker
// surface.
type chaosWorker struct{ h *hashmap.Handle[int64] }

func (w chaosWorker) Insert(key int64) bool   { return w.h.Insert(key, key) }
func (w chaosWorker) Delete(key int64) bool   { return w.h.Delete(key) }
func (w chaosWorker) Contains(key int64) bool { return w.h.Contains(key) }
func (w chaosWorker) Release()                { w.h.Map().ReleaseHandle(w.h) }

// chaosMapFactory builds a poison-instrumented hash map whose reclaimer is
// wrapped with a seeded chaos plan: every worker tid gets a repeating timed
// stall at a derived boundary and period. The plan closes before the manager
// (reclaimtest runs Close after its quiescent checks), so shutdown draining
// runs fault-free.
func chaosMapFactory(t *testing.T, scheme string, seed int64) reclaimtest.SetFactory {
	return func(n int) reclaimtest.SetUnderTest {
		type rec = hashmap.Node[int64]
		alloc := arena.NewBump[rec](n, 0)
		pp := reclaimtest.NewPoisonPool[rec, *rec](pool.New[rec](n, alloc))
		rcl, err := recordmgr.NewReclaimer[rec](scheme, n, pp, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan := faultinject.NewPlan()
		tids := make([]int, n)
		for i := range tids {
			tids[i] = i
		}
		faultinject.AddChaos(plan, faultinject.ChaosConfig{
			Seed:      seed,
			Tids:      tids,
			MeanEvery: 256,
			Hold:      200 * time.Microsecond,
		})
		plan.Arm()
		mgr := core.NewRecordManager[rec](alloc, pp, faultinject.Wrap(rcl, plan))
		m := hashmap.New[int64](mgr, n, hashmap.WithInitialBuckets(2), hashmap.WithMaxLoad(2))
		var violations atomic.Int64
		m.SetVisitHook(func(_ int, nd *hashmap.Node[int64]) {
			if nd.IsPoisoned() {
				violations.Add(1)
			}
		})
		return reclaimtest.SetUnderTest{
			AcquireWorker: func() reclaimtest.Worker { return chaosWorker{m.AcquireHandle()} },
			Violations:    violations.Load,
			DoubleFrees:   pp.DoubleFrees,
			Stats:         rcl.Stats,
			Validate:      m.Validate,
			Close: func() {
				plan.Close()
				mgr.Close()
			},
		}
	}
}

func TestChaosStressSet(t *testing.T) {
	opts := reclaimtest.DefaultSetStressOptions()
	if testing.Short() {
		opts.Duration = 60 * time.Millisecond
	}
	for _, scheme := range recordmgr.Schemes() {
		if scheme == recordmgr.SchemeDEBRAPlus {
			continue // hashmap.New refuses it
		}
		t.Run(scheme, func(t *testing.T) {
			reclaimtest.StressSet(t, chaosMapFactory(t, scheme, 0xC4A05), opts)
		})
	}
}

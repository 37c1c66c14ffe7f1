package faultinject_test

// The chaos poison-sink stress: the standard hash-map safety harness
// (poisoned free sink, traversal visit hook, thread-private semantic model)
// run with a seeded chaos schedule of timed stalls injected at the reclaimer
// operation boundaries of every worker. Chaos must not be able to provoke a
// use-after-free, a double free, or a wrong answer — the stalls only delay
// threads, which is exactly the adversary the schemes claim to tolerate.
// Runs under -race -short in CI (timed stalls never park, so every scheme
// supports the schedule).
//
// DEBRA+ runs with neutralization disabled here (degrading to DEBRA-
// equivalent reclamation) in every build, not just under -race. The chaos
// stalls hold epochs back long enough to trip the suspicion threshold
// constantly, and the cooperative signal simulation cannot stop a doomed,
// signal-pending thread from executing one more mutating CAS before its next
// checkpoint — by then the epoch has advanced past it and the CAS can land
// in a recycled record (the C++ original preempts with a real signal, so the
// window does not exist there). Under mass concurrent neutralization that
// window is hit often enough to corrupt the list. Neutralization itself is
// exercised by the deterministic probe tests, whose only neutralized
// threads run structure-free allocate/retire bodies; making the full
// mechanism safe under live traffic is the ROADMAP's "race-clean DEBRA+
// neutralization" item.

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/hashmap"
	"repro/internal/faultinject"
	"repro/internal/neutralize"
	"repro/internal/pool"
	"repro/internal/reclaim/debraplus"
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
		dom := neutralize.NewDomain(n)
		var rcl core.Reclaimer[rec]
		if scheme == recordmgr.SchemeDEBRAPlus {
			// Neutralization off under chaos in every build — see the file
			// comment. With no signals pending, the visit hook's doomed-read
			// exemption never applies, so any poisoned visit is a violation,
			// exactly as for the other schemes.
			rcl = debraplus.New[rec](n, pp,
				debraplus.WithDomain(dom), debraplus.WithNeutralizationDisabled())
		} else {
			var err error
			rcl, err = recordmgr.NewReclaimer[rec](scheme, n, pp, dom)
			if err != nil {
				t.Fatal(err)
			}
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
		m.SetVisitHook(func(tid int, nd *hashmap.Node[int64]) {
			if nd.IsPoisoned() && !dom.Pending(tid) {
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
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			reclaimtest.StressSet(t, chaosMapFactory(t, scheme, 0xC4A05), opts)
		})
	}
}

package skiplist_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/skiplist"
	"repro/internal/pool"
	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

// stressSchemes are the schemes the skip list runs under: everything except
// the neutralizing DEBRA+ (interrupting a lock holder is unsafe; the list's
// constructor rejects crash-recovery reclaimers).
func stressSchemes() []string {
	return []string{
		recordmgr.SchemeNone, recordmgr.SchemeEBR, recordmgr.SchemeQSBR,
		recordmgr.SchemeDEBRA, recordmgr.SchemeHP,
	}
}

// listWorker adapts an acquired list handle to the reclaimtest.Worker surface.
type listWorker struct{ h *skiplist.Handle[int64] }

func (w listWorker) Insert(key int64) bool   { return w.h.Insert(key, key) }
func (w listWorker) Delete(key int64) bool   { return w.h.Delete(key) }
func (w listWorker) Contains(key int64) bool { return w.h.Contains(key) }
func (w listWorker) Release()                { w.h.List().ReleaseHandle(w.h) }

// poisonedListFactory builds a skip list whose pool poisons freed records
// and whose visit hook counts observations of poisoned records. Under hazard
// pointers the violation check is skipped: the list's lock-free searches may
// traverse from a retired (protected but unlinked) predecessor whose
// successor pointer is frozen, a residual window the paper concedes for
// HP on structures that traverse retired records; the double-free,
// conservation and semantic checks still apply there.
func poisonedListFactory(t *testing.T, scheme string) reclaimtest.SetFactory {
	return func(n int) reclaimtest.SetUnderTest {
		type rec = skiplist.Node[int64]
		alloc := arena.NewBump[rec](n, 0)
		pp := reclaimtest.NewPoisonPool[rec, *rec](pool.New[rec](n, alloc))
		rcl, err := recordmgr.NewReclaimer[rec](scheme, n, pp, nil)
		if err != nil {
			t.Fatal(err)
		}
		mgr := core.NewRecordManager[rec](alloc, pp, rcl)
		l := skiplist.New[int64](mgr, n)
		su := reclaimtest.SetUnderTest{
			AcquireWorker: func() reclaimtest.Worker { return listWorker{l.AcquireHandle()} },
			DoubleFrees:   pp.DoubleFrees,
			Stats:         rcl.Stats,
			Validate:      l.Validate,
		}
		if scheme != recordmgr.SchemeHP {
			var violations atomic.Int64
			l.SetVisitHook(func(tid int, nd *skiplist.Node[int64]) {
				if nd.IsPoisoned() {
					violations.Add(1)
				}
			})
			su.Violations = violations.Load
		}
		return su
	}
}

// TestStressAllSchemes runs the poison-sink safety stress under every
// supported scheme.
func TestStressAllSchemes(t *testing.T) {
	for _, scheme := range stressSchemes() {
		t.Run(scheme, func(t *testing.T) {
			reclaimtest.StressSet(t, poisonedListFactory(t, scheme), reclaimtest.DefaultSetStressOptions())
		})
	}
}

package bst_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/bst"
	"repro/internal/neutralize"
	"repro/internal/pool"
	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

// treeWorker adapts an acquired tree handle to the reclaimtest.Worker surface.
type treeWorker struct{ h bst.Handle[int64] }

func (w treeWorker) Insert(key int64) bool   { return w.h.Insert(key, key) }
func (w treeWorker) Delete(key int64) bool   { return w.h.Delete(key) }
func (w treeWorker) Contains(key int64) bool { return w.h.Contains(key) }
func (w treeWorker) Release()                { w.h.Tree().ReleaseHandle(w.h) }

// poisonedTreeFactory builds a tree whose pool poisons freed records and
// whose visit hook counts observations of poisoned records on the search
// path. The neutralization domain is created here so the hook can discard
// observations made with a signal pending (a doomed DEBRA+ attempt whose
// results are thrown away). Under hazard pointers the violation check is
// skipped: the tree's searches traverse retired-to-retired pointers, the
// structural property the paper identifies as fundamentally incompatible
// with HP's reachability proof (a narrow validated-but-stale window
// remains); the double-free, semantic and structural checks still apply.
func poisonedTreeFactory(t *testing.T, scheme string) reclaimtest.SetFactory {
	return func(n int) reclaimtest.SetUnderTest {
		type rec = bst.Record[int64]
		alloc := arena.NewBump[rec](n, 0)
		pp := reclaimtest.NewPoisonPool[rec, *rec](pool.New[rec](n, alloc))
		dom := neutralize.NewDomain(n)
		rcl, err := recordmgr.NewReclaimer[rec](scheme, n, pp, dom)
		if err != nil {
			t.Fatal(err)
		}
		mgr := core.NewRecordManager[rec](alloc, pp, rcl)
		tree := bst.New[int64](mgr)
		su := reclaimtest.SetUnderTest{
			AcquireWorker: func() reclaimtest.Worker { return treeWorker{tree.AcquireHandle()} },
			DoubleFrees:   pp.DoubleFrees,
			Stats:         rcl.Stats,
			Validate:      tree.Validate,
		}
		if scheme != recordmgr.SchemeHP {
			var violations atomic.Int64
			tree.SetVisitHook(func(tid int, nd *bst.Record[int64]) {
				if nd.IsPoisoned() && !dom.Pending(tid) {
					violations.Add(1)
				}
			})
			su.Violations = violations.Load
		}
		return su
	}
}

// TestStressAllSchemes runs the poison-sink safety stress under all six
// reclamation schemes.
func TestStressAllSchemes(t *testing.T) {
	for _, scheme := range recordmgr.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			reclaimtest.StressSet(t, poisonedTreeFactory(t, scheme), reclaimtest.DefaultSetStressOptions())
		})
	}
}

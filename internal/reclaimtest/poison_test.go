package reclaimtest_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/reclaim/debra"
	"repro/internal/reclaim/epoch"
	"repro/internal/reclaimtest"
)

type node struct {
	id       int64
	poisoned atomic.Bool
}

func (n *node) Poison() bool     { return n.poisoned.Swap(true) }
func (n *node) Unpoison()        { n.poisoned.Store(false) }
func (n *node) IsPoisoned() bool { return n.poisoned.Load() }

// TestPoisonPoolRunsTheProductionFreePath: a scheme freeing into a PoisonPool
// runs the paths it runs over a bare pool.Pool. DEBRA's limbo bags draw
// their blocks from the inner pool's block pool, a rotation hands the inner
// pool two full limbo blocks whole (its bag splices them in and takes no
// block of its own), and every record arrives poisoned.
func TestPoisonPoolRunsTheProductionFreePath(t *testing.T) {
	inner := pool.New[node](1, arena.NewBump[node](1, 0))
	pp := reclaimtest.NewPoisonPool[node, *node](inner)
	bp := inner.BlockPool(0)
	gets := func() int64 { return bp.Allocated() + bp.Recycled() }

	before := gets()
	r := debra.New[node](1, pp, epoch.WithCheckThresh(1), epoch.WithIncrThresh(1))
	if got := gets() - before; got != 3 {
		t.Fatalf("debra's three limbo bags took %d head blocks from the inner pool's block pool, want 3", got)
	}

	h := r.Handle(0)
	const k = 2 * blockbag.BlockSize
	recs := make([]*node, k)
	h.LeaveQstate()
	for i := range recs {
		recs[i] = inner.Allocate(0)
		h.Retire(recs[i])
	}
	h.EnterQstate()

	before = gets()
	for ops := 0; r.Stats().Freed < k; ops++ {
		if ops == 100 {
			t.Fatalf("limbo not freed after %d operations: %+v", ops, r.Stats())
		}
		h.LeaveQstate()
		h.EnterQstate()
	}
	if got := gets() - before; got != 0 {
		t.Fatalf("freeing two full limbo blocks took %d blocks from the inner pool: they did not reach its FreeBlocks whole", got)
	}
	if pp.Freed() != k || inner.Stats().Freed != k || pp.DoubleFrees() != 0 {
		t.Fatalf("poison pool freed %d (%d double), inner pool %d, want %d", pp.Freed(), pp.DoubleFrees(), inner.Stats().Freed, k)
	}
	for _, rec := range recs {
		if !rec.IsPoisoned() {
			t.Fatal("a freed record is not poisoned")
		}
	}
}

// TestPoisonPoolReleaseDrainsThread: ReleaseHandle hands the slot's cached
// records through the PoisonPool to the inner pool's shared bag, poisoned.
func TestPoisonPoolReleaseDrainsThread(t *testing.T) {
	alloc := arena.NewBump[node](2, 0)
	inner := pool.New[node](2, alloc)
	pp := reclaimtest.NewPoisonPool[node, *node](inner)
	mgr := core.NewRecordManager[node](alloc, pp, debra.New[node](2, pp))
	h := mgr.AcquireHandle()
	recs := make([]*node, 2*blockbag.BlockSize)
	for i := range recs {
		recs[i] = h.Allocate()
		if recs[i].IsPoisoned() {
			t.Fatal("Allocate handed out a poisoned record")
		}
	}
	for _, rec := range recs {
		h.Deallocate(rec)
		if !rec.IsPoisoned() {
			t.Fatal("Deallocate did not poison the record")
		}
	}
	if inner.SharedBlocks() != 0 {
		t.Fatal("records reached the shared bag before the release")
	}
	mgr.ReleaseHandle(h)
	if inner.SharedBlocks() == 0 {
		t.Fatal("ReleaseHandle left the slot's cached records private to the inner pool")
	}
}

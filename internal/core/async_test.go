package core_test

// Unit tests for the AsyncReclaimer hand-off machinery itself; the
// end-to-end behaviour (leak-free shutdown, drain-behind-idle-workers, the
// poison-sink stress) is covered at the recordmgr and data-structure layers.

import (
	"testing"

	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/reclaim/ebr"
	"repro/internal/reclaimtest"
)

// chain builds a detached chain holding n records (full blocks plus a
// partial), the shape FlushRetired enqueues.
func chain(n int) *blockbag.Block[rec] {
	bag := blockbag.New[rec](nil)
	for i := 0; i < n; i++ {
		bag.Add(&rec{ID: int64(i)})
	}
	return bag.DetachAll()
}

func TestAsyncReclaimerCountersAndClose(t *testing.T) {
	const workers, reclaimers = 2, 2
	sink := reclaimtest.NewRecordingSink()
	r := ebr.New[rec](workers+reclaimers, sink)
	a := core.NewAsyncReclaimer[rec](r, workers, reclaimers)
	if got := a.Reclaimers(); got != reclaimers {
		t.Fatalf("Reclaimers = %d", got)
	}
	const n = 3*blockbag.BlockSize + 11
	a.Enqueue(0, chain(n))
	a.Enqueue(1, chain(n))
	a.Close()
	if got := a.Enqueued(); got != 2*n {
		t.Fatalf("Enqueued = %d want %d", got, 2*n)
	}
	if got := a.Drained(); got != 2*n {
		t.Fatalf("Drained = %d want %d after Close", got, 2*n)
	}
	if got := a.HandoffPending(); got != 0 {
		t.Fatalf("HandoffPending = %d after Close", got)
	}
	if got := r.Stats().Retired; got != 2*n {
		t.Fatalf("scheme saw %d retires, want %d", got, 2*n)
	}
	// Close does not force-free (that is DrainLimbo's job, under the
	// all-quiescent contract), but the reclaimer goroutines' own LeaveQstate
	// cycles may already have advanced the epoch and freed a chain: the drain
	// must free exactly what the limbo still holds, and then everything is
	// freed.
	limbo := r.Stats().Limbo
	if drained := r.DrainLimbo(0); drained != limbo {
		t.Fatalf("DrainLimbo freed %d want the %d records still in limbo", drained, limbo)
	}
	if got := sink.Freed(); got != 2*n {
		t.Fatalf("sink saw %d frees want %d", got, 2*n)
	}
}

// TestAsyncReclaimerDrainSparesEmptyPipeline: DrainSpares and SpareBlocks
// are well-behaved no-ops on a pipeline that never produced exchange spares.
// The live spare-return path (spares produced by a real workload must be
// parked at Close and handed back to the workers' retire-buffer pools) is
// covered end-to-end by TestAsyncCloseReturnsSpareBlocks in
// internal/recordmgr, where a scheme configuration that actually produces
// exchange spares can be built.
func TestAsyncReclaimerDrainSparesEmptyPipeline(t *testing.T) {
	const workers, reclaimers = 1, 1
	sink := reclaimtest.NewRecordingSink()
	r := ebr.New[rec](workers+reclaimers, sink)
	a := core.NewAsyncReclaimer[rec](r, workers, reclaimers)
	a.Close()
	if got := a.SpareBlocks(); got != 0 {
		t.Fatalf("SpareBlocks = %d on an idle pipeline", got)
	}
	n := 0
	a.DrainSpares(func(blk *blockbag.Block[rec]) { n++ })
	if n != 0 {
		t.Fatalf("DrainSpares returned %d blocks from an empty stack", n)
	}
}

func TestAsyncReclaimerValidatesCapacity(t *testing.T) {
	r := ebr.New[rec](2, reclaimtest.NewRecordingSink())
	if !panics(func() { core.NewAsyncReclaimer[rec](r, 2, 1) }) {
		t.Fatal("undersized reclaimer accepted (2 participants for 2 workers + 1 reclaimer)")
	}
}

func TestAsyncReclaimerEnqueueAfterClosePanics(t *testing.T) {
	r := ebr.New[rec](2, reclaimtest.NewRecordingSink())
	a := core.NewAsyncReclaimer[rec](r, 1, 1)
	a.Close()
	if !panics(func() { a.Enqueue(0, chain(5)) }) {
		t.Fatal("Enqueue after Close accepted")
	}
}

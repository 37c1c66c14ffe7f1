package debra_test

import (
	"testing"

	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/reclaim/debra"
	"repro/internal/reclaim/epoch"
	"repro/internal/reclaimtest"
)

// fast returns options that make epochs advance quickly in unit tests.
func fast() []epoch.Option {
	return []epoch.Option{epoch.WithCheckThresh(1), epoch.WithIncrThresh(1)}
}

func factory(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
	return debra.New(n, sink, fast()...)
}

func factoryDefault(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
	return debra.New(n, sink)
}

func TestConformance(t *testing.T)        { reclaimtest.Conformance(t, factory) }
func TestConformanceDefault(t *testing.T) { reclaimtest.Conformance(t, factoryDefault) }
func TestStressFastEpochs(t *testing.T) {
	reclaimtest.Stress(t, factory, reclaimtest.DefaultStressOptions())
}
func TestStressDefaultPacing(t *testing.T) {
	reclaimtest.Stress(t, factoryDefault, reclaimtest.DefaultStressOptions())
}

// What DEBRA does because it is a block-bag core.Reclaimer
// (internal/reclaimtest/schemesuite.go).
func TestNewValidation(t *testing.T)        { reclaimtest.NewValidation(t, factory) }
func TestQuiescentRetire(t *testing.T)      { reclaimtest.QuiescentRetire(t, factory) }
func TestSharesThePoolsBlocks(t *testing.T) { reclaimtest.SharesThePoolsBlocks(t, factory) }
func TestLimboEmptiesAfterThreeEpochs(t *testing.T) {
	reclaimtest.LimboEmptiesAfterThreeEpochs(t, factory)
}

// With INCR_THRESH 1 a lone thread advances in every LeaveQstate, so every
// retire reads an epoch past its announcement: the default pacing leaves the
// first operation of an epoch alone.
func TestLimboEmptiesAfterTwoEpochs(t *testing.T) {
	reclaimtest.LimboEmptiesAfterTwoEpochs(t, factoryDefault)
}

// An advance takes 64 of the retirer's operations, a two-slot pass two.
func TestLimboEmptiesAfterOneAdvance(t *testing.T) {
	reclaimtest.LimboEmptiesAfterOneAdvance(t, func(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
		return debra.New(n, sink, epoch.WithCheckThresh(1), epoch.WithIncrThresh(64))
	})
}

// At the default pacing a slot retiring one or three records per operation
// would hold 100 or 300 in limbo; the bag trigger holds it to about
// 2·bagThresh.
func TestLimboBoundedByBag(t *testing.T) {
	reclaimtest.LimboBoundedByBag(t, factoryDefault, 2*debra.BagThresh)
}

// retireMany drives tid through ops, retiring fresh records, and returns them.
func retireMany(r *debra.Reclaimer[reclaimtest.Record], tid, n int) []*reclaimtest.Record {
	recs := make([]*reclaimtest.Record, 0, n)
	for i := 0; i < n; i++ {
		r.Handle(tid).LeaveQstate()
		rec := &reclaimtest.Record{ID: int64(i)}
		r.Handle(tid).Retire(rec)
		recs = append(recs, rec)
		r.Handle(tid).EnterQstate()
	}
	return recs
}

// TestSingleThreadReclaims checks that a single thread reclaims its own
// retired records once enough operations (and therefore epochs) pass.
func TestSingleThreadReclaims(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New(1, sink, fast()...)
	n := 4 * blockbag.BlockSize
	retireMany(r, 0, n)
	// A few empty operations to advance epochs and rotate bags.
	for i := 0; i < 10; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatalf("no records freed after %d retires (stats=%+v epoch=%d)", n, r.Stats(), r.Epoch())
	}
	if s := r.Stats(); s.Freed > s.Retired {
		t.Fatalf("freed %d > retired %d", s.Freed, s.Retired)
	}
}

// TestRecordNotFreedWhileReaderInOperation checks the core epoch-safety
// property: a retired record is not handed to the sink while a thread that
// was inside an operation at the retire is still there, however many
// operations the retirer runs; it goes once that thread leaves, the epoch
// advances and a pass completes.
func TestRecordNotFreedWhileReaderInOperation(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New(2, sink, fast()...)

	// Thread 1 is in the middle of an operation: it announced the current
	// epoch and holds (conceptually) pointers into the structure.
	r.Handle(1).LeaveQstate()

	// Thread 0 retires many records; thread 1 never finishes its operation,
	// so no record may be freed.
	for i := 0; i < 3*blockbag.BlockSize; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if got := sink.Freed(); got != 0 {
		t.Fatalf("%d records freed while thread 1 was still in its operation", got)
	}

	// Thread 1 finishes; after thread 0 performs more operations the epoch
	// advances and reclamation proceeds.
	r.Handle(1).EnterQstate()
	for i := 0; i < 20; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatal("records never freed after thread 1 became quiescent")
	}
}

// TestQuiescentThreadDoesNotBlock demonstrates DEBRA's partial fault
// tolerance: threads that are quiescent (crashed or descheduled BETWEEN
// operations) never delay reclamation.
func TestQuiescentThreadDoesNotBlock(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New(8, sink, fast()...) // threads 1..7 never run at all
	retireMany(r, 0, 12*blockbag.BlockSize)
	for i := 0; i < 10; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatal("quiescent threads blocked reclamation (they must not)")
	}
}

// TestStalledOperationBlocksReclamation is the flip side: DEBRA alone is NOT
// fault tolerant, so a thread stalled inside an operation stops everyone
// from freeing memory (this is what DEBRA+ fixes).
func TestStalledOperationBlocksReclamation(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New(2, sink, fast()...)
	r.Handle(1).LeaveQstate() // stalled mid-operation
	retireMany(r, 0, 4*blockbag.BlockSize)
	if got := sink.Freed(); got != 0 {
		t.Fatalf("%d records freed despite a thread stalled mid-operation", got)
	}
	if r.Stats().Limbo == 0 {
		t.Fatal("expected records to accumulate in limbo")
	}
}

// TestEpochAdvancesRequireFullScan checks that the epoch only advances after
// the incremental scan has covered every thread.
func TestEpochAdvancesRequireFullScan(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	const n = 5
	r := debra.New(n, sink, fast()...)
	start := r.Epoch()
	// All threads must participate (or be quiescent); with every thread
	// quiescent except thread 0, thread 0 still needs at least n checks.
	for i := 0; i < n-1; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if r.Epoch() != start {
		t.Fatalf("epoch advanced after only %d operations (scan cannot have covered all %d threads)", n-1, n)
	}
	for i := 0; i < n+2; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if r.Epoch() == start {
		t.Fatal("epoch never advanced even though all other threads are quiescent")
	}
}

// TestIncrThreshDelaysAdvance checks the INCR_THRESH pacing: with the
// default threshold of 100, a lone thread does not advance the epoch on
// every operation.
func TestIncrThreshDelaysAdvance(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New(1, sink, epoch.WithCheckThresh(1), epoch.WithIncrThresh(100))
	start := r.Epoch()
	for i := 0; i < 50; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if r.Epoch() != start {
		t.Fatal("epoch advanced before INCR_THRESH operations")
	}
	for i := 0; i < 200; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if r.Epoch() == start {
		t.Fatal("epoch never advanced after INCR_THRESH operations")
	}
}

// TestBlockSinkReceivesWholeBlocks verifies the O(1) block transfer path: a
// bag filled within one epoch arrives at the sink as its full blocks plus one
// partial block, in one chain.
func TestBlockSinkReceivesWholeBlocks(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New[reclaimtest.Record](1, sink, fast()...)
	n := 3*blockbag.BlockSize + 10
	h := r.Handle(0)
	h.LeaveQstate()
	for i := 0; i < n; i++ {
		h.Retire(&reclaimtest.Record{ID: int64(i)})
	}
	h.EnterQstate()
	for i := 0; i < 10; i++ {
		h.LeaveQstate()
		h.EnterQstate()
	}
	if chains, full, partial := sink.Chains(); sink.Freed() != int64(n) || chains != 1 || full != 3 || partial != 1 {
		t.Fatalf("%d records arrived as %d full and %d partial blocks in %d chains",
			sink.Freed(), full, partial, chains)
	}
}

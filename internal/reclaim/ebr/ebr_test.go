package ebr_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/reclaim/ebr"
	"repro/internal/reclaimtest"
)

func factory(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
	return ebr.New(n, sink)
}

func TestConformance(t *testing.T) { reclaimtest.Conformance(t, factory) }

func TestStress(t *testing.T) { reclaimtest.Stress(t, factory, reclaimtest.DefaultStressOptions()) }

// What EBR does because it is a block-bag core.Reclaimer
// (internal/reclaimtest/schemesuite.go).
func TestNewValidation(t *testing.T)        { reclaimtest.NewValidation(t, factory) }
func TestQuiescentRetire(t *testing.T)      { reclaimtest.QuiescentRetire(t, factory) }
func TestSharesThePoolsBlocks(t *testing.T) { reclaimtest.SharesThePoolsBlocks(t, factory) }
func TestLimboEmptiesAfterThreeEpochs(t *testing.T) {
	reclaimtest.LimboEmptiesAfterThreeEpochs(t, factory)
}

// TestSingleThreadEventuallyFrees drives one thread through many operations
// and checks that retired records are eventually handed to the sink, and
// only after at least two epoch advances.
func TestSingleThreadEventuallyFrees(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := ebr.New[reclaimtest.Record](1, sink)
	rec := &reclaimtest.Record{ID: 42}
	r.Handle(0).LeaveQstate()
	r.Handle(0).Retire(rec)
	r.Handle(0).EnterQstate()
	if sink.Contains(rec) {
		t.Fatal("record freed immediately after retire")
	}
	for i := 0; i < 10; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if !sink.Contains(rec) {
		t.Fatalf("record not freed after 10 idle operations (epoch=%d, stats=%+v)", r.Epoch(), r.Stats())
	}
}

// TestStalledOperationBlocksReclamation verifies the paper's criticism of
// classical EBR: a thread that is stalled inside an operation prevents every
// other thread from reclaiming memory.
func TestStalledOperationBlocksReclamation(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := ebr.New[reclaimtest.Record](2, sink)

	// Thread 1 starts an operation and stalls (never calls EnterQstate).
	r.Handle(1).LeaveQstate()

	for i := 0; i < 10_000; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if got := sink.Freed(); got != 0 {
		t.Fatalf("stalled thread should block reclamation, but %d records were freed", got)
	}
	if limbo := r.Stats().Limbo; limbo != 10_000 {
		t.Fatalf("limbo=%d want 10000", limbo)
	}

	// Once the stalled thread finishes, reclamation resumes.
	r.Handle(1).EnterQstate()
	for i := 0; i < 10; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if got := sink.Freed(); got == 0 {
		t.Fatal("reclamation did not resume after the stalled thread finished")
	}
}

// TestIdleThreadDoesNotBlockForever checks that a registered thread which
// never performs an operation does not prevent reclamation (the
// implementation tracks activity; see the package comment).
func TestIdleThreadDoesNotBlockForever(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := ebr.New[reclaimtest.Record](4, sink) // threads 1..3 never run
	for i := 0; i < 1000; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatal("idle registered threads blocked reclamation")
	}
}

// TestNoFreeWhileRetireeCouldBeReferenced retires a record while a second
// thread is mid-operation and verifies the record is not freed until that
// thread passes through a quiescent state.
func TestNoFreeWhileRetireeCouldBeReferenced(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := ebr.New[reclaimtest.Record](2, sink)

	r.Handle(1).LeaveQstate() // thread 1 is mid-operation and may hold pointers
	rec := &reclaimtest.Record{ID: 7}
	r.Handle(0).LeaveQstate()
	r.Handle(0).Retire(rec)
	r.Handle(0).EnterQstate()
	for i := 0; i < 100; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if sink.Contains(rec) {
		t.Fatal("record freed while thread 1 was still inside its operation")
	}
	r.Handle(1).EnterQstate()
	for i := 0; i < 100; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if !sink.Contains(rec) {
		t.Fatal("record never freed after thread 1 became quiescent")
	}
}

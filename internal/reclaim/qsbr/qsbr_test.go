package qsbr_test

import (
	"testing"

	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/reclaim/qsbr"
	"repro/internal/reclaimtest"
)

func factory(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
	return qsbr.New(n, sink)
}

func TestConformance(t *testing.T) { reclaimtest.Conformance(t, factory) }

func TestStress(t *testing.T) { reclaimtest.Stress(t, factory, reclaimtest.DefaultStressOptions()) }

// What QSBR does because it is a block-bag core.Reclaimer
// (internal/reclaimtest/schemesuite.go).
func TestNewValidation(t *testing.T)        { reclaimtest.NewValidation(t, factory) }
func TestQuiescentRetire(t *testing.T)      { reclaimtest.QuiescentRetire(t, factory) }
func TestSharesThePoolsBlocks(t *testing.T) { reclaimtest.SharesThePoolsBlocks(t, factory) }
func TestLimboEmptiesAfterThreeEpochs(t *testing.T) {
	reclaimtest.LimboEmptiesAfterThreeEpochs(t, factory)
}
func TestLimboEmptiesAfterTwoEpochs(t *testing.T) {
	reclaimtest.LimboEmptiesAfterTwoEpochs(t, factory)
}

func TestSingleThreadReclaims(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := qsbr.New[reclaimtest.Record](1, sink)
	for i := 0; i < 6*blockbag.BlockSize; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatalf("no records freed: %+v", r.Stats())
	}
}

func TestStalledThreadBlocksReclamation(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := qsbr.New[reclaimtest.Record](2, sink)
	r.Handle(1).LeaveQstate() // stalled inside an operation, never announces quiescence
	for i := 0; i < 6*blockbag.BlockSize; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() != 0 {
		t.Fatal("QSBR freed records while a thread never passed a quiescent state")
	}
}

func TestOfflineThreadDoesNotBlock(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := qsbr.New[reclaimtest.Record](4, sink) // threads 1..3 never run
	for i := 0; i < 6*blockbag.BlockSize; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatal("offline threads blocked reclamation")
	}
}

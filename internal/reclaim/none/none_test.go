package none_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/reclaim/none"
	"repro/internal/reclaimtest"
)

func factory(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
	return none.New[reclaimtest.Record](n)
}

func TestConformance(t *testing.T) { reclaimtest.Conformance(t, factory) }

func TestStress(t *testing.T) { reclaimtest.Stress(t, factory, reclaimtest.DefaultStressOptions()) }

func TestSharesThePoolsBlocks(t *testing.T) { reclaimtest.SharesThePoolsBlocks(t, factory) }

func TestNeverFrees(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := none.New[reclaimtest.Record](1)
	_ = sink
	for i := 0; i < 10_000; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	s := r.Stats()
	if s.Retired != 10_000 {
		t.Fatalf("Retired=%d", s.Retired)
	}
	if s.Freed != 0 {
		t.Fatalf("Freed=%d want 0", s.Freed)
	}
	if s.Limbo != 10_000 {
		t.Fatalf("Limbo=%d want 10000", s.Limbo)
	}
}

func TestRetireNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	none.New[reclaimtest.Record](1).Handle(0).Retire(nil)
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	none.New[reclaimtest.Record](0)
}

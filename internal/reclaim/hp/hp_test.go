package hp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/reclaim/hp"
	"repro/internal/reclaimtest"
)

func factory(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
	// A small retire threshold keeps unit tests snappy while still
	// exercising the scan-and-free machinery.
	return hp.New(n, sink, hp.WithRetireThreshold(64))
}

func TestConformance(t *testing.T) { reclaimtest.Conformance(t, factory) }

func TestStress(t *testing.T) { reclaimtest.Stress(t, factory, reclaimtest.DefaultStressOptions()) }

func TestSharesThePoolsBlocks(t *testing.T) { reclaimtest.SharesThePoolsBlocks(t, factory) }

func TestStressDefaultThreshold(t *testing.T) {
	reclaimtest.Stress(t, func(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
		return hp.New(n, sink)
	}, reclaimtest.DefaultStressOptions())
}

func TestProtectUnprotect(t *testing.T) {
	r := hp.New[reclaimtest.Record](2, reclaimtest.NewRecordingSink())
	a := &reclaimtest.Record{ID: 1}
	b := &reclaimtest.Record{ID: 2}
	if !r.Handle(0).Protect(a) || !r.Handle(0).Protect(b) {
		t.Fatal("Protect failed")
	}
	if !hp.IsProtected(r, 0, a) || !hp.IsProtected(r, 0, b) {
		t.Fatal("Protect lost an announcement")
	}
	if hp.IsProtected(r, 1, a) {
		t.Fatal("thread 1 reports protection it never acquired")
	}
	r.Handle(0).Unprotect(a)
	if hp.IsProtected(r, 0, a) {
		t.Fatal("record still protected after Unprotect")
	}
	if !hp.IsProtected(r, 0, b) {
		t.Fatal("Unprotect removed the wrong announcement")
	}
	r.Handle(0).EnterQstate()
	if hp.IsProtected(r, 0, b) {
		t.Fatal("EnterQstate must release every hazard pointer")
	}
	if !r.Handle(0).IsQuiescent() {
		t.Fatal("thread with no hazard pointers should be quiescent")
	}
}

func TestProtectNilIsNoop(t *testing.T) {
	r := hp.New[reclaimtest.Record](1, reclaimtest.NewRecordingSink())
	if !r.Handle(0).Protect(nil) {
		t.Fatal("Protect(nil) must succeed trivially")
	}
	r.Handle(0).Unprotect(nil)
}

func TestSlotExhaustionPanics(t *testing.T) {
	r := hp.New[reclaimtest.Record](1, reclaimtest.NewRecordingSink(), hp.WithSlots(2))
	r.Handle(0).Protect(&reclaimtest.Record{ID: 1})
	r.Handle(0).Protect(&reclaimtest.Record{ID: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when slots are exhausted")
		}
	}()
	r.Handle(0).Protect(&reclaimtest.Record{ID: 3})
}

// TestProtectedRecordSurvivesScan is the fundamental hazard pointer
// guarantee: a retired record that is announced by some thread is not freed
// by a scan; it is freed by a later scan after the announcement is released.
func TestProtectedRecordSurvivesScan(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := hp.New(2, sink, hp.WithRetireThreshold(32))
	victim := &reclaimtest.Record{ID: 99}
	if !r.Handle(1).Protect(victim) {
		t.Fatal("Protect failed")
	}
	// Thread 0 retires the victim plus enough records to trigger scans.
	r.Handle(0).Retire(victim)
	for i := 0; i < 200; i++ {
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
	}
	if sink.Freed() == 0 {
		t.Fatal("scan never freed anything")
	}
	if sink.Contains(victim) {
		t.Fatal("protected record was freed")
	}
	// Release the announcement; further retiring triggers another scan that
	// may now free the victim.
	r.Handle(1).Unprotect(victim)
	for i := 0; i < 200; i++ {
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(1000 + i)})
	}
	if !sink.Contains(victim) {
		t.Fatal("record never freed after its hazard pointer was released")
	}
}

// TestBoundedGarbage checks the O(k n^2) bound in spirit: with a threshold
// of R, a thread's limbo never exceeds R plus one scan's withheld records.
func TestBoundedGarbage(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	const threshold = 128
	r := hp.New(2, sink, hp.WithRetireThreshold(threshold))
	for i := 0; i < 10_000; i++ {
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		if limbo := r.Stats().Limbo; limbo > 2*threshold+512 {
			t.Fatalf("limbo=%d exceeds bound at iteration %d", limbo, i)
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := hp.New(1, sink, hp.WithRetireThreshold(32))
	for i := 0; i < 500; i++ {
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
	}
	s := r.Stats()
	if s.Retired != 500 {
		t.Fatalf("Retired=%d want 500", s.Retired)
	}
	if s.Freed+s.Limbo != s.Retired {
		t.Fatalf("Freed+Limbo=%d want %d", s.Freed+s.Limbo, s.Retired)
	}
	if s.Scans == 0 {
		t.Fatal("expected at least one scan")
	}
	if int64(len(sink.Records())) != s.Freed {
		t.Fatalf("sink saw %d records, stats say %d", len(sink.Records()), s.Freed)
	}
}

func TestNewValidation(t *testing.T) { reclaimtest.NewValidation(t, factory) }

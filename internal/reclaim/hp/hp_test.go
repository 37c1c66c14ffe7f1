package hp_test

import (
	"testing"

	"repro/internal/blockbag"
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

func TestSweepLeavesOnlyProtected(t *testing.T) {
	reclaimtest.SweepLeavesOnlyProtected(t, factory, func(r core.Reclaimer[reclaimtest.Record]) {
		hp.Scan(r.(*hp.Reclaimer[reclaimtest.Record]), 0)
	})
}

func TestStressDefaultThreshold(t *testing.T) {
	reclaimtest.Stress(t, func(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
		return hp.New(n, sink)
	}, reclaimtest.DefaultStressOptions())
}

func TestProtectUnprotect(t *testing.T) {
	r := hp.New[reclaimtest.Record](2, reclaimtest.NewRecordingSink())
	a := &reclaimtest.Record{ID: 1}
	b := &reclaimtest.Record{ID: 2}
	r.Handle(0).Protect(a)
	r.Handle(0).Protect(b)
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
	r.Handle(0).Protect(nil)
	if !r.Handle(0).IsQuiescent() {
		t.Fatal("Protect(nil) announced something")
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
	r.Handle(1).Protect(victim)
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

// A record protected twice holds one slot, and one Unprotect releases it: the
// skip list keeps a node it records at several levels protected only while
// it stays recorded (skiplist.isRecorded).
func TestProtectKeepsOneSlotPerRecord(t *testing.T) {
	r := hp.New[reclaimtest.Record](1, reclaimtest.NewRecordingSink(), hp.WithSlots(2))
	h := r.Handle(0)
	a, b := &reclaimtest.Record{ID: 1}, &reclaimtest.Record{ID: 2}
	h.Protect(a)
	h.Protect(a)
	h.Protect(b) // would panic if a held both slots
	h.Unprotect(a)
	if hp.IsProtected(r, 0, a) || !hp.IsProtected(r, 0, b) {
		t.Fatal("one Unprotect must release a record protected twice, and only it")
	}
	// A released slot below the high-water mark is reused.
	h.Protect(a)
	if !hp.IsProtected(r, 0, a) || !hp.IsProtected(r, 0, b) {
		t.Fatal("re-protect lost an announcement")
	}
	h.EnterQstate()
	if hp.IsProtected(r, 0, a) || hp.IsProtected(r, 0, b) || !h.IsQuiescent() {
		t.Fatal("EnterQstate must release every hazard pointer")
	}
}

// sweepBag returns a bag of n fresh records and the records themselves.
func sweepBag(n int) (*blockbag.Bag[reclaimtest.Record], []*reclaimtest.Record) {
	bag := blockbag.New[reclaimtest.Record](nil)
	recs := make([]*reclaimtest.Record, n)
	for i := range recs {
		recs[i] = &reclaimtest.Record{ID: int64(i)}
		bag.Add(recs[i])
	}
	return bag, recs
}

// The sweep detaches every record no row announces, partial blocks included,
// and the bag keeps exactly the announced ones, wherever they sit and
// whichever row announces them.
func TestTableSweepKeepsOnlyAnnounced(t *testing.T) {
	tab := hp.NewTable[reclaimtest.Record](2, 48, nil)
	bag, recs := sweepBag(4*blockbag.BlockSize + 100)
	announced := map[*reclaimtest.Record]bool{}
	for i := 0; i < len(recs); i += 97 {
		if !tab.Slots(i % 2).Protect(recs[i]) {
			t.Fatal("row full")
		}
		announced[recs[i]] = true
	}
	chain := tab.Sweep(0, bag)
	freed := 0
	for blk := chain; blk != nil; blk = blk.Next() {
		if blk != chain && !blk.Full() {
			t.Fatalf("a block after the first holds %d records", blk.Len())
		}
		for i := 0; i < blk.Len(); i++ {
			if announced[blk.Record(i)] {
				t.Fatalf("announced record %d was detached", blk.Record(i).ID)
			}
			freed++
		}
	}
	if bag.Len() != len(announced) || freed != len(recs)-len(announced) {
		t.Fatalf("bag kept %d and the chain took %d of %d records; %d are announced", bag.Len(), freed, len(recs), len(announced))
	}
	for rec := range announced {
		if !bag.Contains(rec) {
			t.Fatalf("announced record %d missing from the bag", rec.ID)
		}
	}
}

// A bag whose every record is announced stays whole: the sweep detaches
// nothing.
func TestTableSweepOfAnnouncedBagDetachesNothing(t *testing.T) {
	n := 3 * blockbag.BlockSize
	tab := hp.NewTable[reclaimtest.Record](1, n, nil)
	bag, recs := sweepBag(n)
	for _, rec := range recs {
		tab.Slots(0).Protect(rec)
	}
	if chain := tab.Sweep(0, bag); chain != nil {
		t.Fatalf("the sweep detached %d announced records", blockbag.ChainLen(chain))
	}
	if bag.Len() != n {
		t.Fatalf("bag lost records: %d", bag.Len())
	}
}

package debraplus_test

import (
	"testing"

	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/neutralize"
	"repro/internal/reclaim/debraplus"
	"repro/internal/reclaim/epoch"
	"repro/internal/reclaimtest"
)

// fast makes epochs advance and suspicion trigger quickly for unit tests.
func fast() []epoch.Option {
	return []epoch.Option{
		epoch.WithCheckThresh(1),
		epoch.WithIncrThresh(1),
		debraplus.WithSuspectThresholdBlocks(1),
		debraplus.WithScanThresholdBlocks(1),
	}
}

func factory(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
	return debraplus.New(n, sink, fast()...)
}

func factoryDefault(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
	return debraplus.New(n, sink)
}

func TestConformance(t *testing.T)        { reclaimtest.Conformance(t, factory) }
func TestConformanceDefault(t *testing.T) { reclaimtest.Conformance(t, factoryDefault) }
func TestStressFast(t *testing.T) {
	reclaimtest.Stress(t, factory, reclaimtest.DefaultStressOptions())
}
func TestStressDefault(t *testing.T) {
	reclaimtest.Stress(t, factoryDefault, reclaimtest.DefaultStressOptions())
}

// What DEBRA+ does because it is a block-bag core.Reclaimer
// (internal/reclaimtest/schemesuite.go).
func TestNewValidation(t *testing.T)        { reclaimtest.NewValidation(t, factory) }
func TestQuiescentRetire(t *testing.T)      { reclaimtest.QuiescentRetire(t, factory) }
func TestSharesThePoolsBlocks(t *testing.T) { reclaimtest.SharesThePoolsBlocks(t, factory) }

// drive runs tid through n operations retiring one fresh record each.
func drive(r *debraplus.Reclaimer[reclaimtest.Record], tid, n int) {
	for i := 0; i < n; i++ {
		r.Handle(tid).LeaveQstate()
		r.Handle(tid).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(tid).EnterQstate()
	}
}

// TestNeutralizationUnblocksReclamation is the headline DEBRA+ property: a
// thread stalled in the middle of an operation does NOT stop other threads
// from reclaiming memory — it gets neutralized instead.
func TestNeutralizationUnblocksReclamation(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debraplus.New(2, sink, fast()...)

	// Thread 1 stalls inside an operation (it never reaches EnterQstate and
	// never executes another checkpoint — a crashed or descheduled thread).
	r.Handle(1).LeaveQstate()

	drive(r, 0, 20*blockbag.BlockSize)
	if sink.Freed() == 0 {
		t.Fatalf("reclamation blocked by a stalled thread: stats=%+v", r.Stats())
	}
	s := r.Stats()
	if s.Neutralizations == 0 {
		t.Fatal("expected at least one neutralization signal to be sent")
	}
	if s.Freed > s.Retired {
		t.Fatalf("freed %d > retired %d", s.Freed, s.Retired)
	}
}

// TestIdleThreadsDoNotBlock: slots that never run an operation are quiescent,
// so reclamation proceeds without signalling anyone.
func TestIdleThreadsDoNotBlock(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debraplus.New(6, sink, fast()...) // threads 1..5 never run
	drive(r, 0, 2000)
	if sink.Freed() == 0 {
		t.Fatal("idle threads blocked reclamation")
	}
	if n := r.Stats().Neutralizations; n != 0 {
		t.Fatalf("%d signals sent to idle threads", n)
	}
}

// TestStalledThreadIsNeutralizedAtNextCheckpoint verifies the delivery path:
// after being signalled, the stalled thread's next checkpoint panics with
// neutralize.Neutralized and leaves the thread quiescent.
func TestStalledThreadIsNeutralizedAtNextCheckpoint(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debraplus.New(2, sink, fast()...)
	r.Handle(1).LeaveQstate()
	drive(r, 0, 20*blockbag.BlockSize) // forces thread 0 to signal thread 1
	if r.Domain().SignalsSent() == 0 {
		t.Fatal("no signal was sent to the stalled thread")
	}

	delivered := func() (d bool) {
		defer func() {
			if v := recover(); v != nil {
				n, ok := neutralize.Recover(v)
				if !ok || n.Tid != 1 {
					t.Errorf("unexpected panic value %+v", v)
				}
				d = true
			}
		}()
		r.Handle(1).Checkpoint()
		return false
	}()
	if !delivered {
		t.Fatal("pending signal was not delivered at the next checkpoint")
	}
	if !r.Handle(1).IsQuiescent() {
		t.Fatal("neutralized thread must be left in a quiescent state")
	}
	if r.SelfNeutralizations(1) != 1 {
		t.Fatalf("SelfNeutralizations=%d want 1", r.SelfNeutralizations(1))
	}
	// Once quiescent, further checkpoints are no-ops even if more signals
	// arrive (the paper's handler returns immediately for quiescent threads).
	r.Domain().Signal(1)
	r.Handle(1).Checkpoint() // must not panic
	// And the next operation consumes stale signals silently.
	r.Handle(1).LeaveQstate()
	r.Handle(1).Checkpoint() // must not panic: signal was sent while quiescent
	r.Handle(1).EnterQstate()
}

// TestEnterQstateDeliversPendingSignal: an operation that finishes its body
// while a signal is pending must be neutralized rather than allowed to
// return a possibly stale result.
func TestEnterQstateDeliversPendingSignal(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debraplus.New(2, sink, fast()...)
	r.Handle(1).LeaveQstate()
	r.Domain().Signal(1)
	neutralized := false
	func() {
		defer func() {
			if v := recover(); v != nil {
				_, ok := neutralize.Recover(v)
				neutralized = ok
			}
		}()
		r.Handle(1).EnterQstate()
	}()
	if !neutralized {
		t.Fatal("EnterQstate must deliver a pending signal to a non-quiescent thread")
	}
}

// TestRProtectPreventsReclamation: records announced through RProtect are
// never freed, even though the epoch advances past a neutralized thread;
// they are freed after RUnprotectAll.
func TestRProtectPreventsReclamation(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debraplus.New(2, sink, fast()...)

	victim := &reclaimtest.Record{ID: 7}
	r.Handle(1).LeaveQstate()
	r.Handle(1).RProtect(victim)
	if !debraplus.IsRProtected(r, victim) {
		t.Fatal("RProtect announced nothing")
	}
	// Thread 1 now stalls; thread 0 retires the victim and lots of other
	// records, neutralizing thread 1 and reclaiming.
	r.Handle(0).LeaveQstate()
	r.Handle(0).Retire(victim)
	r.Handle(0).EnterQstate()
	drive(r, 0, 20*blockbag.BlockSize)
	if sink.Freed() == 0 {
		t.Fatal("nothing was reclaimed")
	}
	if sink.Contains(victim) {
		t.Fatal("RProtected record was freed")
	}
	if r.TableSweeps() == 0 {
		t.Fatal("records were freed without a sweep of the RProtect table")
	}
	// Releasing the protection lets a later scan free the victim.
	r.Handle(1).RUnprotectAll()
	drive(r, 0, 20*blockbag.BlockSize)
	if !sink.Contains(victim) {
		t.Fatal("record never freed after RUnprotectAll")
	}
}

// TestRProtectDeliversPendingSignalAndWithdraws: if a signal is already
// pending when RProtect is called, the protection must be withdrawn before
// jumping to recovery (the announce-then-recheck handshake).
func TestRProtectDeliversPendingSignalAndWithdraws(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debraplus.New(2, sink, fast()...)
	victim := &reclaimtest.Record{ID: 9}
	r.Handle(1).LeaveQstate()
	r.Domain().Signal(1)
	neutralized := false
	func() {
		defer func() {
			if v := recover(); v != nil {
				_, ok := neutralize.Recover(v)
				neutralized = ok
			}
		}()
		r.Handle(1).RProtect(victim)
	}()
	if !neutralized {
		t.Fatal("RProtect did not deliver the pending signal")
	}
	if debraplus.IsRProtected(r, victim) {
		t.Fatal("protection must be withdrawn when RProtect is neutralized")
	}
}

// TestBoundedGarbageUnderStall: with a stalled thread, DEBRA+ keeps the
// number of unreclaimed records bounded (the O(n(nm+c)) bound), in contrast
// to DEBRA where it grows without bound.
func TestBoundedGarbageUnderStall(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debraplus.New(2, sink, fast()...)
	r.Handle(1).LeaveQstate() // stalled forever
	const total = 60 * blockbag.BlockSize
	maxLimbo := int64(0)
	for i := 0; i < total; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
		if l := r.Stats().Limbo; l > maxLimbo {
			maxLimbo = l
		}
	}
	// The bound is a small number of blocks per bag per thread; 20 blocks is
	// far below the 60 blocks retired and far above the expected steady
	// state, so it distinguishes bounded from unbounded behaviour robustly.
	if maxLimbo > 20*blockbag.BlockSize {
		t.Fatalf("limbo reached %d records; expected it to stay bounded", maxLimbo)
	}
}

// TestNeutralizationDisabledBehavesLikeDEBRA: with signalling turned off, a
// stalled thread blocks reclamation again (ablation switch).
func TestNeutralizationDisabledBehavesLikeDEBRA(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debraplus.New(2, sink, append(fast(), debraplus.WithNeutralizationDisabled())...)
	r.Handle(1).LeaveQstate()
	drive(r, 0, 20*blockbag.BlockSize)
	if sink.Freed() != 0 {
		t.Fatal("records were freed even though neutralization was disabled and a thread is stalled")
	}
}

// TestSharedDomain: two reclaimers can share a neutralization domain.
func TestSharedDomain(t *testing.T) {
	dom := neutralize.NewDomain(2)
	sink := reclaimtest.NewRecordingSink()
	r1 := debraplus.New(2, sink, append(fast(), debraplus.WithDomain(dom))...)
	r2 := debraplus.New(2, sink, append(fast(), debraplus.WithDomain(dom))...)
	if r1.Domain() != dom || r2.Domain() != dom {
		t.Fatal("WithDomain was not honoured")
	}
}

// TestRProtectCapacity: exceeding the RProtect capacity is a programming
// error and must be reported loudly.
func TestRProtectCapacity(t *testing.T) {
	r := debraplus.New(1, reclaimtest.NewRecordingSink(), debraplus.WithMaxRProtect(2))
	r.Handle(0).LeaveQstate()
	r.Handle(0).RProtect(&reclaimtest.Record{ID: 1})
	r.Handle(0).RProtect(&reclaimtest.Record{ID: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when RProtect capacity is exceeded")
		}
	}()
	r.Handle(0).RProtect(&reclaimtest.Record{ID: 3})
}

func TestSweepLeavesOnlyProtected(t *testing.T) {
	reclaimtest.SweepLeavesOnlyProtected(t, factory, func(r core.Reclaimer[reclaimtest.Record]) {
		// The stalled protector is neutralized, so the epoch moves and slot
		// 0's rotations sweep its bags.
		for range 50 {
			r.Handle(0).LeaveQstate()
			r.Handle(0).EnterQstate()
		}
	})
}

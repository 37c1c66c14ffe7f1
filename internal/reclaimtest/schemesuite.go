package reclaimtest

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/neutralize"
	"repro/internal/pool"
)

// This file holds the test bodies every scheme package runs against its own
// constructor: what a scheme must do because it is a core.Reclaimer over
// block bags, whichever policy it is. Scheme packages keep tests of their
// policy only.

// Panics reports whether fn panics.
func Panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// operate runs tid through ops operations, retiring one fresh record in each
// of the first retires.
func operate(r core.Reclaimer[Record], tid, ops, retires int) {
	h := r.Handle(tid)
	for i := 0; i < ops; i++ {
		h.LeaveQstate()
		if i < retires {
			h.Retire(&Record{ID: int64(i)})
		}
		h.EnterQstate()
	}
}

// NewValidation: the constructor rejects n = 0 and a nil sink, and Retire
// rejects nil, from a quiescent thread too.
func NewValidation(t *testing.T, f Factory) {
	t.Helper()
	if !Panics(func() { f(0, NewRecordingSink()) }) {
		t.Fatal("expected panic for n=0")
	}
	if !Panics(func() { f(1, nil) }) {
		t.Fatal("expected panic for nil sink")
	}
	if !Panics(func() { f(1, NewRecordingSink()).Handle(0).Retire(nil) }) {
		t.Fatal("expected panic for Retire(nil)")
	}
}

// QuiescentRetire: an epoch scheme's Retire is legal from a quiescent thread
// — it pins the thread around the hand-off itself — and leaves the thread
// quiescent. The record still waits out its grace period: it is not freed
// while a thread that was inside an operation at the retire stays there,
// however many operations the retirer runs, and it is freed once that
// thread leaves and the epoch moves on. Under debra+ the reader's reference
// outlives a neutralization only as a recovery protection, so it RProtects
// x (a no-op for the other schemes) and releases it when it leaves.
func QuiescentRetire(t *testing.T, f Factory) {
	t.Helper()
	sink := NewRecordingSink()
	r := f(2, sink)
	retirer, reader := r.Handle(0), r.Handle(1)
	x := &Record{ID: 1}
	reader.LeaveQstate() // may still reach x
	reader.RProtect(x)
	retirer.EnterQstate() // fresh threads start quiescent; make it explicit
	if Panics(func() { retirer.Retire(x) }) {
		t.Fatal("Retire from a quiescent thread panicked")
	}
	if !retirer.IsQuiescent() {
		t.Fatal("thread left non-quiescent by a quiescent Retire")
	}
	if s := r.Stats(); s.Retired != 1 {
		t.Fatalf("Retired = %d, want 1", s.Retired)
	}
	operate(r, 0, 1000, 0)
	if sink.Contains(x) {
		t.Fatal("a quiescent retire was freed while a thread inside an operation could still reach it")
	}
	func() {
		// debra+ may have neutralized the reader meanwhile; the reader's
		// EnterQstate then delivers the signal, which its operation wrapper
		// recovers.
		defer func() { neutralize.Recover(recover()) }()
		reader.EnterQstate()
	}()
	reader.RUnprotectAll()
	for ops := 0; ops < 1000 && !sink.Contains(x); ops++ {
		operate(r, 0, 1, 0)
		operate(r, 1, 1, 0)
	}
	// debra+ sweeps a bag only once it is worth a table scan; its shutdown
	// drain frees the tail.
	if !sink.Contains(x) && r.Props().CrashRecovery {
		r.DrainLimbo(0)
	}
	if !sink.Contains(x) {
		t.Fatalf("a quiescent retire was never freed: %+v", r.Stats())
	}
}

// LimboEmptiesAfterTwoEpochs is the bound for a retire filed under the
// epoch it reads (internal/reclaim/epoch, Limbo): a record retired while the
// epoch still equals the one the thread announced is freed by the thread's
// first operation boundary once the epoch has advanced twice more, whatever
// the size of the tail. The factory must not advance the epoch inside the
// LeaveQstate that begins the retiring operation (a lone DEBRA thread with
// INCR_THRESH 1 does, which makes every retire late).
func LimboEmptiesAfterTwoEpochs(t *testing.T, f Factory) {
	t.Helper()
	for _, k := range []int{1, blockbag.BlockSize - 1, blockbag.BlockSize + 1} {
		sink := NewRecordingSink()
		r := f(1, sink)
		h := r.Handle(0)
		start := r.Stats().EpochAdvances
		h.LeaveQstate()
		if r.Stats().EpochAdvances != start {
			t.Fatalf("k=%d: the epoch advanced inside the retiring operation's LeaveQstate", k)
		}
		for i := 0; i < k; i++ {
			h.Retire(&Record{ID: int64(i)})
		}
		h.EnterQstate()
		for ops := 0; r.Stats().EpochAdvances < start+2; ops++ {
			if ops == 1000 {
				t.Fatalf("k=%d: epoch stuck after %d operations: %+v", k, ops, r.Stats())
			}
			operate(r, 0, 1, 0)
		}
		h.LeaveQstate()
		if s := r.Stats(); s.Limbo != 0 || s.Freed != int64(k) || sink.Freed() != int64(k) {
			t.Fatalf("k=%d: two epochs on, stats %+v, sink holds %d records", k, s, sink.Freed())
		}
		h.EnterQstate()
	}
}

// LimboEmptiesAfterOneAdvance is the bound of a policy that frees a thread's
// prev bag as soon as its verification pass for the epoch it announces
// completes (epoch.Limbo.FreePrev): a record retired while the epoch still
// equals the one the retiring operation announced is freed by the retirer's
// first LeaveQstate that completes a pass (one Stats.Scans) once the epoch
// has advanced once, and not before. While the other slot stays inside an
// operation announced at the retire's epoch, no pass for the next epoch
// completes and nothing is freed. The factory must let a lone operating
// thread advance the epoch within a few thousand operations, but not twice
// within the few operations one two-slot pass takes: INCR_THRESH must exceed
// them, and a limbo bag trigger (debra's bagThresh) may fire on the k records
// before the advance but not on the empty current bag the advance leaves.
func LimboEmptiesAfterOneAdvance(t *testing.T, f Factory) {
	t.Helper()
	for _, k := range []int{1, blockbag.BlockSize - 1, blockbag.BlockSize + 1} {
		for _, held := range []bool{false, true} {
			sink := NewRecordingSink()
			limboEmptiesAfterOneAdvance(t, f(2, sink), k, held)
			if sink.Freed() != int64(k) {
				t.Fatalf("k=%d: sink holds %d records", k, sink.Freed())
			}
		}
	}
}

func limboEmptiesAfterOneAdvance(t *testing.T, r core.Reclaimer[Record], k int, held bool) {
	t.Helper()
	retirer, other := r.Handle(0), r.Handle(1)
	start := r.Stats().EpochAdvances
	retirer.LeaveQstate()
	if r.Stats().EpochAdvances != start {
		t.Fatalf("k=%d: the epoch advanced inside the retiring operation's LeaveQstate", k)
	}
	for i := 0; i < k; i++ {
		retirer.Retire(&Record{ID: int64(i)})
	}
	retirer.EnterQstate()
	if held {
		other.LeaveQstate() // announces the retire's epoch, and stays
	}
	for ops := 0; r.Stats().EpochAdvances == start; ops++ {
		if ops == 1<<12 {
			t.Fatalf("k=%d: epoch stuck after %d operations: %+v", k, ops, r.Stats())
		}
		operate(r, 0, 1, 0)
		if s := r.Stats(); s.Freed != 0 {
			t.Fatalf("k=%d, held=%v: %d records freed before the epoch advanced", k, held, s.Freed)
		}
	}
	if held {
		operate(r, 0, 16, 0)
		if s := r.Stats(); s.Freed != 0 || s.EpochAdvances != start+1 {
			t.Fatalf("k=%d: while the other slot stays in its operation, stats %+v (want 0 freed, 1 advance)", k, s)
		}
		other.EnterQstate()
	}
	scans := r.Stats().Scans
	for ops := 0; ; ops++ {
		if ops == 16 {
			t.Fatalf("k=%d, held=%v: no pass completed in %d operations after the advance: %+v", k, held, ops, r.Stats())
		}
		retirer.LeaveQstate()
		s := r.Stats()
		if s.EpochAdvances != start+1 {
			t.Fatalf("k=%d: the epoch advanced again before the pass completed: %+v", k, s)
		}
		if s.Scans == scans {
			if s.Freed != 0 {
				t.Fatalf("k=%d, held=%v: %d records freed before a pass for the next epoch completed", k, held, s.Freed)
			}
			retirer.EnterQstate()
			continue
		}
		if s.Limbo != 0 || s.Freed != int64(k) {
			t.Fatalf("k=%d, held=%v: the first completed pass one advance on left stats %+v", k, held, s)
		}
		retirer.EnterQstate()
		return
	}
}

// LimboBoundedByBag is the bound of a policy that advances the epoch once a
// thread's current limbo bag is big enough, not only every INCR_THRESH
// operations: a running thread's limbo stays at most bound records whatever
// it retires per operation. One goroutine drives two slots round-robin at the
// factory's pacing, each operation retiring one record, then three; after a
// warm-up, neither slot's LimboSize exceeds bound. Paced by operations alone,
// a slot holds about INCR_THRESH times its retires per operation.
func LimboBoundedByBag(t *testing.T, f Factory, bound int) {
	t.Helper()
	const warmup, ops = 1000, 20000
	for _, per := range []int{1, 3} {
		r := f(2, NewRecordingSink())
		limbo, ok := r.(interface{ LimboSize(tid int) int })
		if !ok {
			t.Fatalf("%s does not report LimboSize", r.Name())
		}
		most := 0
		for i := 0; i < warmup+ops; i++ {
			tid := i % 2
			h := r.Handle(tid)
			h.LeaveQstate()
			for j := 0; j < per; j++ {
				h.Retire(&Record{ID: int64(i)})
			}
			h.EnterQstate()
			if i >= warmup {
				most = max(most, limbo.LimboSize(tid))
			}
		}
		if most > bound {
			t.Fatalf("%d retires per operation: a slot held %d records in limbo, want at most %d: %+v", per, most, bound, r.Stats())
		}
	}
}

// LimboEmptiesAfterThreeEpochs is the bound a rotation that frees whole bags
// gives: whatever the size of the tail, nothing a thread retired is
// left in limbo once the epoch has advanced three times since its retiring
// operation began — the two of the grace period, and one because the epoch may
// have advanced under the operation before the retire (a late retire) — and
// the thread has run an operation since. Records reach the sink in chains,
// all of them.
func LimboEmptiesAfterThreeEpochs(t *testing.T, f Factory) {
	t.Helper()
	for _, k := range []int{1, blockbag.BlockSize - 1, blockbag.BlockSize + 1} {
		sink := NewRecordingSink()
		r := f(1, sink)
		h := r.Handle(0)
		start := r.Stats().EpochAdvances
		h.LeaveQstate()
		for i := 0; i < k; i++ {
			h.Retire(&Record{ID: int64(i)})
		}
		h.EnterQstate()
		for ops := 0; r.Stats().EpochAdvances < start+3; ops++ {
			if ops == 1000 {
				t.Fatalf("k=%d: epoch stuck after %d operations: %+v", k, ops, r.Stats())
			}
			operate(r, 0, 1, 0)
		}
		operate(r, 0, 1, 0)
		if s := r.Stats(); s.Limbo != 0 || s.Freed != int64(k) || sink.Freed() != int64(k) {
			t.Fatalf("k=%d: three epochs on, stats %+v, sink holds %d records", k, s, sink.Freed())
		}
	}
}

// SweepLeavesOnlyProtected: a scheme that frees around per-record
// protections (hp's scan, debra+'s rotation sweep) frees every retired record
// no protection covers, partial blocks included, and keeps exactly the
// protected ones. Slot 1 protects a few records inside an operation, through
// both Protect and RProtect (each a no-op in the other scheme), and stays
// there; slot 0 retires them among two full blocks and a partial one, and
// force makes slot 0 sweep what it retired.
func SweepLeavesOnlyProtected(t *testing.T, f Factory, force func(r core.Reclaimer[Record])) {
	t.Helper()
	sink := NewRecordingSink()
	r := f(2, sink)
	retirer, protector := r.Handle(0), r.Handle(1)
	recs := make([]*Record, 2*blockbag.BlockSize+7)
	protected := map[*Record]bool{}
	protector.LeaveQstate()
	for i := range recs {
		recs[i] = &Record{ID: int64(i)}
		if i%100 == 0 {
			protector.Protect(recs[i])
			protector.RProtect(recs[i])
			protected[recs[i]] = true
		}
	}
	retirer.LeaveQstate()
	for _, rec := range recs {
		retirer.Retire(rec)
	}
	retirer.EnterQstate()
	force(r)
	if got := r.Stats().Limbo; got != int64(len(protected)) {
		t.Fatalf("limbo holds %d records after the sweep, want the %d protected", got, len(protected))
	}
	for _, rec := range recs {
		if sink.Contains(rec) == protected[rec] {
			t.Fatalf("record %d (protected %v) freed %v", rec.ID, protected[rec], sink.Contains(rec))
		}
	}
}

// SharesThePoolsBlocks: records cycling allocate -> retire -> limbo -> pool ->
// allocate carry their blocks one way, from the limbo bags to the pool's bag.
// The limbo bags must draw from the block pool those blocks are emptied into,
// or every BlockSize retired records cost a fresh block.
func SharesThePoolsBlocks(t *testing.T, f Factory) {
	t.Helper()
	pl := pool.New[Record](1, arena.NewBump[Record](1, 0))
	h := f(1, pl).Handle(0)
	cycle := func() {
		for i := 0; i < 4*blockbag.BlockSize; i++ {
			h.LeaveQstate()
			h.Retire(pl.Allocate(0))
			h.EnterQstate()
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // fill the limbo bags, the pool bag and the block pool
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("a steady retire/reuse cycle allocates %.1f times per %d records, want 0", n, 4*blockbag.BlockSize)
	}
}

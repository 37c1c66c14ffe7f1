// Package reclaimtest provides shared test scaffolding for the reclamation
// schemes: a recording free sink, a poisoning sink that detects
// use-after-free at the logical level, and a generic concurrent stress
// harness (a tiny lock-free "data structure" of atomic slots) that exercises
// any core.Reclaimer implementation and checks the fundamental safety
// property — a record is never handed to the free sink while a protected /
// epoch-covered reader can still reach it.
package reclaimtest

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/neutralize"
)

// Record is the record type used by the shared tests.
type Record struct {
	ID int64
	// poisoned is set by the PoisonSink when the record is freed; readers
	// that still hold the record under protection must never observe it.
	poisoned atomic.Bool
	// birth distinguishes reuse generations when a pool recycles records.
	birth atomic.Int64
	pad   [4]int64
}

// lender lends each thread a block pool, made at its first request (a scheme
// asks for its threads' at construction), and takes the blocks of the chains
// freed into a test sink back into it, so freeing allocates nothing. The
// pools are published copy-on-write: a free takes no lock.
type lender[T any] struct {
	mu    sync.Mutex
	pools atomic.Pointer[[]*blockbag.BlockPool[T]]
}

// BlockPool implements core.FreeSink.
func (l *lender[T]) BlockPool(tid int) *blockbag.BlockPool[T] {
	if ps := l.pools.Load(); ps != nil && tid < len(*ps) {
		return (*ps)[tid]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var ps []*blockbag.BlockPool[T]
	if cur := l.pools.Load(); cur != nil {
		ps = *cur
	}
	if tid >= len(ps) {
		ps = append(ps[:len(ps):len(ps)], make([]*blockbag.BlockPool[T], tid+1-len(ps))...)
		for i := range ps {
			if ps[i] == nil {
				ps[i] = blockbag.NewBlockPool[T](0)
			}
		}
		l.pools.Store(&ps)
	}
	return ps[tid]
}

// recycle returns chain's blocks to the pool lent to tid.
func (l *lender[T]) recycle(tid int, chain *blockbag.Block[T]) { l.BlockPool(tid).PutChain(chain) }

// RecordingSink collects every freed record (thread safe) and counts the
// chains and blocks they arrived in. It panics on a chain that core.FreeSink
// does not allow: a partial block after the first.
type RecordingSink struct {
	lender[Record]
	mu                    sync.Mutex
	freed                 []*Record
	chains, full, partial int
	count                 atomic.Int64
}

// NewRecordingSink creates an empty recording sink.
func NewRecordingSink() *RecordingSink { return &RecordingSink{} }

// FreeBlocks implements core.FreeSink.
func (s *RecordingSink) FreeBlocks(tid int, chain *blockbag.Block[Record]) {
	s.mu.Lock()
	s.chains++
	for blk := chain; blk != nil; blk = blk.Next() {
		switch {
		case blk.Full():
			s.full++
		case blk == chain:
			s.partial++
		default:
			s.mu.Unlock()
			panic("reclaimtest: a partial block after the first of its chain")
		}
		for i := 0; i < blk.Len(); i++ {
			s.freed = append(s.freed, blk.Record(i))
		}
	}
	s.mu.Unlock()
	s.count.Add(int64(blockbag.ChainLen(chain)))
	s.recycle(tid, chain)
}

// Freed returns the number of records freed so far.
func (s *RecordingSink) Freed() int64 { return s.count.Load() }

// Chains returns the number of chains freed so far and how many full and
// partial blocks they carried.
func (s *RecordingSink) Chains() (chains, full, partial int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chains, s.full, s.partial
}

// Records returns a snapshot of the freed records.
func (s *RecordingSink) Records() []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Record, len(s.freed))
	copy(out, s.freed)
	return out
}

// Contains reports whether rec has been freed.
func (s *RecordingSink) Contains(rec *Record) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.freed {
		if r == rec {
			return true
		}
	}
	return false
}

// PoisonSink marks freed records as poisoned and detects double frees.
type PoisonSink struct {
	lender[Record]
	count       atomic.Int64
	doubleFrees atomic.Int64
}

// NewPoisonSink creates a poisoning sink.
func NewPoisonSink() *PoisonSink { return &PoisonSink{} }

// FreeBlocks implements core.FreeSink.
func (s *PoisonSink) FreeBlocks(tid int, chain *blockbag.Block[Record]) {
	for blk := chain; blk != nil; blk = blk.Next() {
		for i := 0; i < blk.Len(); i++ {
			if blk.Record(i).poisoned.Swap(true) {
				s.doubleFrees.Add(1)
			}
		}
	}
	s.count.Add(int64(blockbag.ChainLen(chain)))
	s.recycle(tid, chain)
}

// Freed returns the number of records freed.
func (s *PoisonSink) Freed() int64 { return s.count.Load() }

// Poisoned reports whether the sink has freed rec.
func (s *PoisonSink) Poisoned(rec *Record) bool { return rec.poisoned.Load() }

// DoubleFrees returns the number of records freed more than once.
func (s *PoisonSink) DoubleFrees() int64 { return s.doubleFrees.Load() }

// AcquireSlots calls acquire n times and returns the handles indexed by slot
// (Tid): on a manager or data structure nobody has acquired from yet these
// are slots 0..n-1, which is how a test that needs slot k gets it.
func AcquireSlots[H interface{ Tid() int }](n int, acquire func() H) []H {
	hs := make([]H, n)
	for i := 0; i < n; i++ {
		h := acquire()
		hs[h.Tid()] = h
	}
	return hs
}

// Factory constructs the reclaimer under test for n threads with the given
// free sink.
type Factory func(n int, sink core.FreeSink[Record]) core.Reclaimer[Record]

// StressOptions tunes the concurrent safety stress.
type StressOptions struct {
	Threads  int
	Slots    int
	Duration time.Duration
	// OpsPerEpoch is the number of slot operations performed per
	// leaveQstate/enterQstate pair (simulating one data structure
	// operation touching a few records).
	OpsPerEpoch int
}

// DefaultStressOptions returns options suitable for `go test`.
func DefaultStressOptions() StressOptions {
	return StressOptions{Threads: 6, Slots: 64, Duration: 150 * time.Millisecond, OpsPerEpoch: 3}
}

// Stress runs the generic safety stress against the reclaimer produced by
// factory and fails the test if a protected reader ever observes a poisoned
// (freed) record, or if any record is freed twice.
//
// The "data structure" is an array of atomic slots, each holding a pointer
// to a live record. A writer replaces a slot's record with CAS and retires
// the old one. A reader loads a slot, protects the record (validating the
// slot still holds it when the scheme requires per-record protection), and
// then asserts the record is not poisoned. Retired records can still be
// observed by readers that obtained them before the retire — exactly the
// window safe memory reclamation must keep open — but freed records must
// never be observed by an operation that completes.
//
// Operations that are neutralized (DEBRA+) have their observations
// discarded, mirroring the scheme's contract that a neutralized operation's
// results are thrown away and the operation retried.
func Stress(t *testing.T, factory Factory, opts StressOptions) {
	t.Helper()
	if opts.Threads <= 0 {
		opts = DefaultStressOptions()
	}
	sink := NewPoisonSink()
	rec := factory(opts.Threads, sink)
	perRecord := rec.Props().PerRecordProtection

	slots := make([]atomic.Pointer[Record], opts.Slots)
	var nextID atomic.Int64
	for i := range slots {
		slots[i].Store(&Record{ID: nextID.Add(1)})
	}

	var violations atomic.Int64
	totalOps := runStress(t, opts.Threads, opts.Duration, func(tid int, stop *atomic.Bool, done *atomic.Int64) {
		rng := rand.New(rand.NewSource(int64(tid)*7919 + 13))
		h := rec.Handle(tid)
		for !stop.Load() {
			completed, observedFreed := runStressOp(h, slots, &nextID, rng, opts.OpsPerEpoch, perRecord)
			if completed {
				done.Add(1)
				violations.Add(observedFreed)
			}
		}
	})

	if v := violations.Load(); v != 0 {
		t.Fatalf("use-after-free: %d protected reads observed a freed record", v)
	}
	if d := sink.DoubleFrees(); d != 0 {
		t.Fatalf("%d records were freed more than once", d)
	}
	stats := rec.Stats()
	if stats.Freed > stats.Retired {
		t.Fatalf("freed (%d) exceeds retired (%d)", stats.Freed, stats.Retired)
	}
	if stats.Limbo < 0 {
		t.Fatalf("negative limbo count: %d", stats.Limbo)
	}
	if totalOps == 0 {
		t.Fatal("stress performed no operations")
	}
}

// runStressOp performs one leaveQstate/enterQstate cycle of slot operations.
// It returns whether the operation completed (was not neutralized) and the
// number of freed-record observations made during it.
func runStressOp(h core.ReclaimerHandle[Record], slots []atomic.Pointer[Record], nextID *atomic.Int64,
	rng *rand.Rand, opsPerEpoch int, perRecord bool) (completed bool, observedFreed int64) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := neutralize.Recover(v); ok {
				// Neutralized: the operation's observations are discarded
				// and it is simply retried, exactly as a data structure
				// using DEBRA+ would do.
				completed = false
				observedFreed = 0
				return
			}
		}
	}()
	h.LeaveQstate()
	for k := 0; k < opsPerEpoch; k++ {
		h.Checkpoint()
		idx := rng.Intn(len(slots))
		cur := slots[idx].Load()
		if cur == nil {
			continue
		}
		if perRecord {
			h.Protect(cur)
			if slots[idx].Load() != cur {
				// The record may already be retired; abandon it.
				h.Unprotect(cur)
				continue
			}
		}
		// The record is now safe to access: it must not have been freed.
		if cur.poisoned.Load() {
			observedFreed++
		}
		if rng.Intn(3) == 0 {
			// Replace the record and retire the old one.
			repl := &Record{ID: nextID.Add(1)}
			if slots[idx].CompareAndSwap(cur, repl) {
				h.Retire(cur)
			}
		}
		if perRecord {
			h.Unprotect(cur)
		}
	}
	h.EnterQstate()
	return true, observedFreed
}

// Conformance runs quick single-threaded sanity checks every reclaimer must
// pass: retiring is counted, quiescence toggles, protect/unprotect and the
// recovery-protection calls do not panic, and stats are consistent.
func Conformance(t *testing.T, factory Factory) {
	t.Helper()
	sink := NewRecordingSink()
	rec := factory(2, sink)

	if got := rec.Name(); got == "" {
		t.Fatal("Name returned an empty string")
	}
	props := rec.Props()
	if props.Scheme == "" {
		t.Fatal("Props().Scheme is empty")
	}
	if len(props.Row()) != len(core.FigureTwoHeader()) {
		t.Fatal("Properties.Row length does not match FigureTwoHeader")
	}

	h := rec.Handle(0)
	h.LeaveQstate()
	r1 := &Record{ID: 1}
	r2 := &Record{ID: 2}
	h.Protect(r1)
	h.Retire(r2)
	h.Unprotect(r1)
	h.RProtect(r1)
	h.RUnprotectAll()
	h.Checkpoint()
	h.EnterQstate()
	if !h.IsQuiescent() {
		t.Fatal("thread 0 not quiescent after EnterQstate")
	}

	s := rec.Stats()
	if s.Retired != 1 {
		t.Fatalf("Retired=%d want 1", s.Retired)
	}
	if s.Freed < 0 || s.Freed > 1 {
		t.Fatalf("Freed=%d out of range", s.Freed)
	}
	if s.Limbo != s.Retired-s.Freed {
		t.Fatalf("Limbo=%d inconsistent with Retired-Freed=%d", s.Limbo, s.Retired-s.Freed)
	}
}

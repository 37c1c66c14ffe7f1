// Package ebr implements classical epoch based reclamation as described by
// Fraser and summarised in Section 3 of the paper ("Epochs"), as a policy on
// internal/reclaim/epoch. It is the baseline DEBRA improves upon, kept for the
// ablation benchmarks, and it keeps the two costs the paper contrasts DEBRA
// against: every operation runs a whole verification pass (O(n) against
// DEBRA's amortised O(1)), and limbo bags are SHARED — one bag per recent
// epoch, behind one mutex (Fraser's original used per-CPU lists with a lock
// per list) — and emptied by whichever thread wins the epoch advance.
//
// Classical EBR has no quiescent bit; this one records when a thread is
// between operations so that a thread which never runs again does not hold
// the epoch forever. A thread that stalls inside an operation still does,
// which is the failure the paper highlights. docs/ARCHITECTURE.md ("The epoch
// schemes") sets it beside the other three.
package ebr

import (
	"sync"

	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/reclaim/epoch"
)

// Reclaimer implements core.Reclaimer with classical EBR.
type Reclaimer[T any] struct {
	*epoch.Domain[T]
	handles []handle[T]

	// The shared limbo, on cache lines of its own.
	_     [core.PadBytes]byte
	mu    sync.Mutex
	limbo [3]*blockbag.Bag[T] // indexed by retire epoch
	_     [core.PadBytes]byte
}

// handle is one thread slot's view (core.ReclaimerHandle).
type handle[T any] struct {
	epoch.Thread[T]
	r      *Reclaimer[T]
	blocks *blockbag.BlockPool[T] // lent by the sink; the shared bags borrow from it
	_      [core.PadBytes]byte
}

// bagOf returns the index of the limbo bag retires at epoch e go to.
func bagOf(e int64) int { return int(e / epoch.Inc % 3) }

// New creates a classical EBR reclaimer for n threads whose reclaimed
// records are passed to sink.
func New[T any](n int, sink core.FreeSink[T], opts ...epoch.Option) *Reclaimer[T] {
	r := &Reclaimer[T]{Domain: epoch.New("ebr", n, sink, opts), handles: make([]handle[T], n)}
	for i := range r.handles {
		h := &r.handles[i]
		r.Bind(i, &h.Thread)
		h.r = r
		h.blocks = r.BlockPool(i)
	}
	for j := range r.limbo {
		r.limbo[j] = blockbag.New(r.handles[0].blocks)
	}
	return r
}

// Handle implements core.Reclaimer.
func (r *Reclaimer[T]) Handle(tid int) core.ReclaimerHandle[T] { return &r.handles[tid] }

// Props implements core.Reclaimer.
func (r *Reclaimer[T]) Props() core.Properties {
	return core.Properties{
		Scheme:                   "EBR",
		ModPerOperation:          true,
		ModPerRetiredRecord:      true,
		Termination:              core.ProgressLockFree,
		TraverseRetiredToRetired: true,
		FaultTolerant:            false,
		BoundedGarbage:           false,
	}
}

// LeaveQstate implements core.ReclaimerHandle: announce the current epoch,
// verify it in full, and on winning the advance empty the bags that are now
// two epochs old.
func (h *handle[T]) LeaveQstate() {
	e := h.Epoch()
	h.Announce(e)
	if h.Verify(0, e, epoch.All) == h.PassLen() && h.Advance(e) {
		h.reclaim(bagOf(e - epoch.Inc))
	}
}

// reclaim frees bag idx. It is called ONLY by the thread that just advanced
// the epoch from e to e+Inc, with idx the bag of e-Inc, and the caller's own
// still-standing announcement of e is the safety argument: idx is also the
// bag of e+2·Inc, an epoch that cannot begin until the caller passes through
// another LeaveQstate, after this drain returns. Concurrent retires therefore
// land in the other two bags. (A freer that merely re-loaded the epoch would
// lack this pin and could race a retire into the bag it is draining.)
func (h *handle[T]) reclaim(idx int) {
	r := h.r
	r.mu.Lock()
	chain := h.bag(idx).DetachAll()
	r.mu.Unlock()
	h.Free(chain)
}

// bag returns shared bag idx drawing its blocks from h's pool, which only
// h's owner uses; the caller holds r.mu. So a bag's blocks come from the
// block pools the sink lends the slots that retire into it
// (epoch.Domain.BlockPool), which the sink empties freed blocks into.
func (h *handle[T]) bag(idx int) *blockbag.Bag[T] {
	b := h.r.limbo[idx]
	b.UsePool(h.blocks)
	return b
}

// Retire implements core.ReclaimerHandle: append to the bag of the current
// epoch, pinning a quiescent thread around the append (epoch.BeginRetire).
func (h *handle[T]) Retire(rec *T) {
	a := h.BeginRetire(rec)
	r := h.r
	idx := bagOf(h.Epoch())
	r.mu.Lock()
	h.bag(idx).Add(rec)
	r.mu.Unlock()
	h.Retired.Inc()
	h.EndRetire(a)
}

// DrainLimbo implements core.Reclaimer: free every record in the bags.
// Only safe once every thread has quiesced for good — no Retire can then be
// running, so the bags are the caller's — and tid is charged for the frees.
func (r *Reclaimer[T]) DrainLimbo(tid int) int64 {
	r.RequireAllQuiescent()
	h := &r.handles[tid]
	var n int64
	for j := range r.limbo {
		n += h.Free(h.bag(j).DetachAll())
	}
	return n
}

var _ core.Reclaimer[int] = (*Reclaimer[int])(nil)

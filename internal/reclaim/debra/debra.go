// Package debra implements DEBRA, the distributed epoch based reclamation
// scheme of Section 4 of the paper (Figure 4), as a policy on
// internal/reclaim/epoch: private limbo bags, a quiescent bit so that a thread
// stopped between operations holds nothing back, whole-bag transfers to the
// free sink — and, the part that is DEBRA's own, an incremental scan. Instead
// of reading every announcement at the start of every operation, a thread
// checks one every CHECK_THRESH operations and tries to advance the epoch
// only after its pass is complete and INCR_THRESH operations have gone by, so
// LeaveQstate, EnterQstate and Retire each take O(1) steps in the worst case.
// Figure 4 frees a thread's oldest limbo bag when the thread rotates into a
// new epoch; here the bag goes as soon as the thread's pass for the epoch it
// announces completes, which the grace period already allows. So a record
// waits for one advance past its retiring operation's epoch and then one
// pass of the retirer's, not also for the advance after that, which
// INCR_THRESH paces.
// docs/ARCHITECTURE.md ("The epoch schemes") sets it beside the other three.
package debra

import (
	"repro/internal/core"
	"repro/internal/reclaim/epoch"
)

// Reclaimer implements core.Reclaimer with DEBRA.
type Reclaimer[T any] struct {
	epoch.Bags[T]
	slots []slot[T]
}

// slot keeps neighbouring threads' handles off each other's cache lines.
type slot[T any] struct {
	Handle[T]
	_ [core.PadBytes]byte
}

// Handle is one thread slot's view (core.ReclaimerHandle): the epoch
// machine's private limbo plus the cursor of the incremental scan. debra+
// embeds it.
type Handle[T any] struct {
	epoch.Limbo[T]

	check, incr int64 // CHECK_THRESH, INCR_THRESH
	pos         int   // where the verification pass for the current epoch stands
	sinceCheck  int64
	sinceIncr   int64
}

// New creates a DEBRA reclaimer for n threads. Reclaimed records are given
// to sink a whole limbo bag at a time.
func New[T any](n int, sink core.FreeSink[T], opts ...epoch.Option) *Reclaimer[T] {
	r := &Reclaimer[T]{Bags: epoch.NewBags("debra", n, sink, opts), slots: make([]slot[T], n)}
	for i := range r.slots {
		r.slots[i].Init(&r.Bags, i)
	}
	return r
}

// Init binds h to slot tid of b.
func (h *Handle[T]) Init(b *epoch.Bags[T], tid int) {
	b.BindLimbo(tid, &h.Limbo)
	h.check, h.incr = b.Config.CheckThresh, b.Config.IncrThresh
}

// Handle implements core.Reclaimer.
func (r *Reclaimer[T]) Handle(tid int) core.ReclaimerHandle[T] { return &r.slots[tid].Handle }

// Props implements core.Reclaimer.
func (r *Reclaimer[T]) Props() core.Properties {
	return core.Properties{
		Scheme:                   "DEBRA",
		ModPerOperation:          true,
		ModPerRetiredRecord:      true,
		Termination:              core.ProgressWaitFree,
		TraverseRetiredToRetired: true,
		FaultTolerant:            false, // partial: only quiescent crashes are tolerated
		BoundedGarbage:           false,
	}
}

// LeaveQstate implements core.ReclaimerHandle (Figure 4, leaveQstate).
func (h *Handle[T]) LeaveQstate() {
	e := h.Epoch()
	if h.Announce(e) {
		h.pos, h.sinceCheck, h.sinceIncr = 0, 0, 0
		h.RotateTo(e)
	}
	h.sinceCheck++
	h.sinceIncr++
	if h.sinceCheck >= h.check {
		h.sinceCheck = 0
		if h.pos < h.PassLen() {
			h.pos = h.Verify(h.pos, e, 1)
			if h.pos == h.PassLen() {
				h.FreePrev()
			}
		}
		if h.pos == h.PassLen() && h.sinceIncr >= h.incr {
			h.Advance(e)
		}
	}
}

var _ core.Reclaimer[int] = (*Reclaimer[int])(nil)

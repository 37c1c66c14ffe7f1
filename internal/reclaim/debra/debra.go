// Package debra implements DEBRA, the distributed epoch based reclamation
// scheme of Section 4 of the paper (Figure 4), as a policy on
// internal/reclaim/epoch: private limbo bags, a quiescent bit so that a thread
// stopped between operations holds nothing back, whole-bag transfers to the
// free sink — and, the part that is DEBRA's own, an incremental scan. Instead
// of reading every announcement at the start of every operation, a thread
// checks one every CHECK_THRESH operations, so LeaveQstate, EnterQstate and
// Retire each take O(1) steps in the worst case.
// Figure 4 frees a thread's oldest limbo bag when the thread rotates into a
// new epoch; here the bag goes as soon as the thread's pass for the epoch it
// announces completes, which the grace period already allows. So a record
// waits for one advance past its retiring operation's epoch and then one
// pass of the retirer's.
//
// Once its pass is complete, a thread tries to advance the epoch when
// INCR_THRESH operations have gone by since it announced the epoch, as in
// the paper, or as soon as its current limbo bag holds bagThresh records,
// whichever comes first. Pacing by operations alone holds INCR_THRESH times
// a thread's retires per operation in limbo; the bag trigger bounds what a
// running thread holds by about 2·bagThresh plus the retires of one pass,
// while a thread that retires little still advances every INCR_THRESH
// operations. An advance still needs a complete pass, so a thread stalled
// inside an operation holds the epoch back as before.
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

// bagThresh is the size of the current limbo bag at which a thread whose pass
// is complete advances the epoch without waiting for INCR_THRESH operations.
// A smaller value advances the epoch more often, which update-heavy
// workloads pay for in throughput and tail latency; read-mostly workloads,
// which retire a few records per INCR_THRESH operations, never reach it.
const bagThresh = 16

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
		if h.pos == h.PassLen() && (h.sinceIncr >= h.incr || h.bagFull()) {
			h.Advance(e)
		}
	}
}

// bagFull reports whether the current limbo bag has reached bagThresh. Under
// Late (debra+) it never has: a rotation there sweeps a bag only once it is
// worth a table scan and leaves the rest in it, so the current bag's size is
// not what the thread retired since its last rotation, and the trigger would
// fire on nearly every completed pass.
func (h *Handle[T]) bagFull() bool { return !h.Late && h.Current().Len() >= bagThresh }

var _ core.Reclaimer[int] = (*Reclaimer[int])(nil)

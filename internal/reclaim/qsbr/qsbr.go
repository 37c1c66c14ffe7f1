// Package qsbr implements quiescent-state-based reclamation (McKenney and
// Slingwine), the generalisation of epoch based reclamation mentioned in
// Section 3 of the paper, as a policy on internal/reclaim/epoch. Where EBR
// infers quiescence from operation boundaries, QSBR has the application
// announce its quiescent states; in the Record Manager interface that
// announcement is EnterQstate, so here QSBR is the epoch scheme whose
// verification pass and advance run at the end of an operation instead of
// the beginning (its limbo rotates where it announces, at the beginning, as
// DEBRA's does). It keeps DEBRA's private limbo bags but verifies in full at
// every quiescent state, which puts its per-operation cost between classical
// EBR's and DEBRA's. Like both it is not fault tolerant: a thread that stops
// inside an operation halts reclamation for everyone. docs/ARCHITECTURE.md
// ("The epoch schemes") sets it beside the other three.
package qsbr

import (
	"repro/internal/core"
	"repro/internal/reclaim/epoch"
)

// Reclaimer implements core.Reclaimer with QSBR.
type Reclaimer[T any] struct {
	epoch.Bags[T]
	handles []handle[T]
}

// handle is one thread slot's view (core.ReclaimerHandle).
type handle[T any] struct {
	epoch.Limbo[T]
	_ [core.PadBytes]byte
}

// New creates a QSBR reclaimer for n threads; reclaimed records go to sink.
func New[T any](n int, sink core.FreeSink[T], opts ...epoch.Option) *Reclaimer[T] {
	r := &Reclaimer[T]{Bags: epoch.NewBags("qsbr", n, sink, opts), handles: make([]handle[T], n)}
	for i := range r.handles {
		r.BindLimbo(i, &r.handles[i].Limbo)
	}
	return r
}

// Handle implements core.Reclaimer.
func (r *Reclaimer[T]) Handle(tid int) core.ReclaimerHandle[T] { return &r.handles[tid] }

// Props implements core.Reclaimer.
func (r *Reclaimer[T]) Props() core.Properties {
	return core.Properties{
		Scheme:                   "QSBR",
		ModPerOperation:          true,
		ModPerRetiredRecord:      true,
		ModOther:                 "identify quiescent states manually",
		Termination:              core.ProgressWaitFree,
		TraverseRetiredToRetired: true,
		FaultTolerant:            false,
		BoundedGarbage:           false,
	}
}

// LeaveQstate implements core.ReclaimerHandle: come online for the current
// grace period and rotate the bags to it. The announcement cannot tell
// whether the period is new to the bags: EnterQstate announces the period it
// observes, and the rotation belongs with the announcement an operation
// retires under.
func (h *handle[T]) LeaveQstate() {
	e := h.Epoch()
	h.Announce(e)
	h.RotateTo(e)
}

// EnterQstate implements core.ReclaimerHandle: announce a quiescent state, go
// offline so as not to hold up later periods, and try to end the current one.
// The bags rotate at the next LeaveQstate.
func (h *handle[T]) EnterQstate() {
	g := h.Epoch()
	h.Quiesce(g)
	if h.Verify(0, g, epoch.All) == h.PassLen() {
		h.Advance(g)
	}
}

var _ core.Reclaimer[int] = (*Reclaimer[int])(nil)

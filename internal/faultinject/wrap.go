package faultinject

// This file interposes a Plan on a core.Reclaimer. The wrapper forwards the
// scheme object, and Handle(slot) wraps the scheme's per-slot handle with the
// plan's hooks at the three injected boundaries, so every crossing fires
// exactly once.

import "repro/internal/core"

// Reclaimer wraps an inner reclamation scheme with a fault Plan. Construct
// with Wrap.
type Reclaimer[T any] struct {
	core.Reclaimer[T]
	plan *Plan
}

// Wrap interposes plan on inner. Identity, properties, counters and the slot
// occupancy forward to inner untouched — the fault plane is orthogonal to all
// of them, and bench rows and tests keep seeing the scheme's own name.
func Wrap[T any](inner core.Reclaimer[T], plan *Plan) *Reclaimer[T] {
	return &Reclaimer[T]{Reclaimer: inner, plan: plan}
}

// Handle returns slot's injecting handle: the scheme's own per-slot handle
// with the plan's hooks at the three boundaries.
func (w *Reclaimer[T]) Handle(slot int) core.ReclaimerHandle[T] {
	return &handle[T]{ReclaimerHandle: w.Reclaimer.Handle(slot), plan: w.plan, tid: slot}
}

// handle is the injecting ReclaimerHandle: the scheme's per-slot handle
// (embedded, so everything the plan does not touch forwards as is) with hook
// crossings at the boundaries the plan knows. Neutralization delivery
// (Checkpoint) is the scheme's own business; the fault plane only delays and
// parks.
type handle[T any] struct {
	core.ReclaimerHandle[T]
	plan *Plan
	tid  int
}

// LeaveQstate forwards, then crosses PointPinned: the stall happens with the
// thread's announcement live, the adversarial timing the paper describes.
func (h *handle[T]) LeaveQstate() {
	h.ReclaimerHandle.LeaveQstate()
	h.plan.hook(h.tid, PointPinned)
}

// EnterQstate crosses PointBeforeUnpin, then forwards: the stall happens
// after the operation's work but before the thread quiesces.
func (h *handle[T]) EnterQstate() {
	h.plan.hook(h.tid, PointBeforeUnpin)
	h.ReclaimerHandle.EnterQstate()
}

// Retire crosses PointRetire, then forwards: a retirer inside an operation
// stalls with its announcement live, a quiescent one before the scheme's
// Retire pins it.
func (h *handle[T]) Retire(rec *T) {
	h.plan.hook(h.tid, PointRetire)
	h.ReclaimerHandle.Retire(rec)
}

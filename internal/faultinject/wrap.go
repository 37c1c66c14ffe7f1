package faultinject

// This file interposes a Plan on a core.Reclaimer. The wrapper forwards the
// scheme object and its extension interfaces — BlockReclaimer, RetirePinner,
// LimboDrainer, Sharded — with safe fallbacks where the wrapped scheme lacks
// a capability, and Handle(slot) wraps the scheme's per-slot handle with the
// plan's hooks at the three injected boundaries, so every crossing fires
// exactly once.

import (
	"repro/internal/blockbag"
	"repro/internal/core"
)

// Reclaimer wraps an inner reclamation scheme with a fault Plan. Construct
// with Wrap.
type Reclaimer[T any] struct {
	inner core.Reclaimer[T]
	plan  *Plan

	// Capabilities resolved once at Wrap, not per call.
	block   core.BlockReclaimer[T]
	pinner  core.RetirePinner
	drainer core.LimboDrainer
	sharded core.Sharded
}

// Wrap interposes plan on inner. The wrapper claims the full extended
// reclaimer surface; capabilities inner lacks degrade safely (per-record
// RetireBlock, no-op PinRetire, zero DrainLimbo). Note that
// core.NewRecordManager sizes its handle table from core.Sharded — every
// scheme in this module implements it, and Wrap forwards it; wrapping an
// external reclaimer without it is only supported for direct use.
func Wrap[T any](inner core.Reclaimer[T], plan *Plan) *Reclaimer[T] {
	w := &Reclaimer[T]{inner: inner, plan: plan}
	w.block, _ = inner.(core.BlockReclaimer[T])
	w.pinner, _ = inner.(core.RetirePinner)
	w.drainer, _ = inner.(core.LimboDrainer)
	w.sharded, _ = inner.(core.Sharded)
	return w
}

// Unwrap returns the wrapped scheme.
func (w *Reclaimer[T]) Unwrap() core.Reclaimer[T] { return w.inner }

// Plan returns the interposed fault plan.
func (w *Reclaimer[T]) Plan() *Plan { return w.plan }

// Name forwards to the wrapped scheme (bench rows and tests keep seeing the
// scheme's own name; the fault plane is orthogonal to identity).
func (w *Reclaimer[T]) Name() string { return w.inner.Name() }

// Props forwards to the wrapped scheme.
func (w *Reclaimer[T]) Props() core.Properties { return w.inner.Props() }

// Stats forwards to the wrapped scheme.
func (w *Reclaimer[T]) Stats() core.Stats { return w.inner.Stats() }

// Handle returns slot's injecting handle: the scheme's own per-slot handle
// with the plan's hooks at the three boundaries.
func (w *Reclaimer[T]) Handle(slot int) core.ReclaimerHandle[T] {
	return &handle[T]{ReclaimerHandle: w.inner.Handle(slot), plan: w.plan, tid: slot}
}

// RetireBlock crosses PointRetire once per block, then forwards — or, for a
// scheme without the block fast path, retires the block's records one by
// one (returning no spare, exactly as core.RetireChain would have).
func (w *Reclaimer[T]) RetireBlock(tid int, blk *blockbag.Block[T]) *blockbag.Block[T] {
	w.plan.hook(tid, PointRetire)
	if w.block != nil {
		return w.block.RetireBlock(tid, blk)
	}
	h := w.inner.Handle(tid)
	for i := 0; i < blk.Len(); i++ {
		h.Retire(blk.Record(i))
	}
	return nil
}

// PinRetire forwards when the wrapped scheme pins retires; otherwise it is
// the same no-op schemes without epoch state use.
func (w *Reclaimer[T]) PinRetire(tid int) {
	if w.pinner != nil {
		w.pinner.PinRetire(tid)
	}
}

// UnpinRetire reverses PinRetire (forwarded or no-op, matching it).
func (w *Reclaimer[T]) UnpinRetire(tid int) {
	if w.pinner != nil {
		w.pinner.UnpinRetire(tid)
	}
}

// DrainLimbo forwards when the wrapped scheme supports quiescent shutdown
// draining, and reports nothing drainable otherwise.
func (w *Reclaimer[T]) DrainLimbo(tid int) int64 {
	if w.drainer != nil {
		return w.drainer.DrainLimbo(tid)
	}
	return 0
}

// ShardMap forwards the wrapped scheme's shard map (nil for a non-sharded
// external reclaimer; see Wrap).
func (w *Reclaimer[T]) ShardMap() *core.ShardMap {
	if w.sharded != nil {
		return w.sharded.ShardMap()
	}
	return nil
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
func (h *handle[T]) LeaveQstate() bool {
	v := h.ReclaimerHandle.LeaveQstate()
	h.plan.hook(h.tid, PointPinned)
	return v
}

// EnterQstate crosses PointBeforeUnpin, then forwards: the stall happens
// after the operation's work but before the thread quiesces.
func (h *handle[T]) EnterQstate() {
	h.plan.hook(h.tid, PointBeforeUnpin)
	h.ReclaimerHandle.EnterQstate()
}

// Retire crosses PointRetire, then forwards.
func (h *handle[T]) Retire(rec *T) {
	h.plan.hook(h.tid, PointRetire)
	h.ReclaimerHandle.Retire(rec)
}

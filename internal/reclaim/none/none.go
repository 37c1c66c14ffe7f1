// Package none provides the "no reclamation" baseline used throughout the
// paper's experiments ("None"): retired records are counted but never freed,
// so the data structure pays no reclamation overhead and its memory
// footprint grows without bound.
package none

import "repro/internal/core"

// Reclaimer is the no-op reclaimer. It is safe (it never frees anything) but
// leaks every retired record.
type Reclaimer[T any] struct {
	occ     *core.Occupancy
	threads []thread
	handles []handle[T]
}

type thread struct {
	// retired is a single-writer counter (core.Counter): written by the
	// owning tid, read racily by Stats.
	retired core.Counter
	_       [core.PadBytes]byte
}

// handle is one thread slot's view (core.ReclaimerHandle): everything is a
// no-op except the leak counter.
type handle[T any] struct {
	t *thread
}

// New creates a no-op reclaimer for n threads.
func New[T any](n int) *Reclaimer[T] {
	if n <= 0 {
		panic("none: New requires n >= 1")
	}
	r := &Reclaimer[T]{occ: core.NewOccupancy(n), threads: make([]thread, n)}
	r.handles = make([]handle[T], n)
	for i := range r.handles {
		r.handles[i] = handle[T]{t: &r.threads[i]}
	}
	return r
}

// Handle implements core.Reclaimer.
func (r *Reclaimer[T]) Handle(tid int) core.ReclaimerHandle[T] { return &r.handles[tid] }

// LeaveQstate implements core.ReclaimerHandle (no-op).
func (h *handle[T]) LeaveQstate() {}

// EnterQstate implements core.ReclaimerHandle (no-op).
func (h *handle[T]) EnterQstate() {}

// IsQuiescent implements core.ReclaimerHandle.
func (h *handle[T]) IsQuiescent() bool { return true }

// Retire implements core.ReclaimerHandle: count and leak.
func (h *handle[T]) Retire(rec *T) {
	if rec == nil {
		panic("none: Retire(nil)")
	}
	h.t.retired.Inc()
}

// Protect implements core.ReclaimerHandle (no-op).
func (h *handle[T]) Protect(rec *T) {}

// Unprotect implements core.ReclaimerHandle (no-op).
func (h *handle[T]) Unprotect(rec *T) {}

// RProtect implements core.ReclaimerHandle (no-op).
func (h *handle[T]) RProtect(rec *T) {}

// RUnprotectAll implements core.ReclaimerHandle (no-op).
func (h *handle[T]) RUnprotectAll() {}

// Checkpoint implements core.ReclaimerHandle (no-op).
func (h *handle[T]) Checkpoint() {}

// Occupancy implements core.Reclaimer (nothing here scans it).
func (r *Reclaimer[T]) Occupancy() *core.Occupancy { return r.occ }

// Name implements core.Reclaimer.
func (r *Reclaimer[T]) Name() string { return "none" }

// Props implements core.Reclaimer.
func (r *Reclaimer[T]) Props() core.Properties {
	return core.Properties{
		Scheme:                   "None",
		Termination:              core.ProgressWaitFree,
		TraverseRetiredToRetired: true,
		// Leaking is trivially "fault tolerant" in the sense that a crashed
		// process cannot make things worse, but garbage is unbounded.
		FaultTolerant:  true,
		BoundedGarbage: false,
	}
}

// DrainLimbo implements core.Reclaimer: nothing is ever freed.
func (r *Reclaimer[T]) DrainLimbo(tid int) int64 { return 0 }

// Stats implements core.Reclaimer.
func (r *Reclaimer[T]) Stats() core.Stats {
	var s core.Stats
	for i := range r.threads {
		s.Retired += r.threads[i].retired.Load()
	}
	s.Limbo = s.Retired
	return s
}

var _ core.Reclaimer[int] = (*Reclaimer[int])(nil)

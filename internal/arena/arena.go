// Package arena provides the Allocator implementations used by the
// experiments in the paper:
//
//   - Bump: each thread reserves large slabs of records up front and hands
//     them out in sequence (the paper's "Bump Allocator", Experiments 1
//     and 2). Because slab movement is just a per-thread counter, the total
//     memory allocated for records can be computed after a trial without
//     perturbing it, which is how Figure 9 (right) measures footprint.
//   - Heap: every allocation comes from the runtime allocator (the role
//     played by malloc/tcmalloc in Experiment 3); deallocation simply drops
//     the reference.
//
// Records handed out by the Bump allocator are type-stable: they live in
// slabs owned by the allocator and are never returned to the garbage
// collector while the allocator is alive. This is the property that makes
// reclamation meaningful in Go — a record freed too early will be recycled
// and re-initialised while another thread still holds a pointer to it,
// reproducing exactly the hazards the paper's schemes must prevent.
package arena

import (
	"unsafe"

	"repro/internal/core"
)

// DefaultSlabRecords is the number of records reserved per slab by the Bump
// allocator.
const DefaultSlabRecords = 4096

// Bump is a per-thread bump allocator over pre-reserved slabs.
//
// It intentionally has no free list: Deallocate only counts. Reuse of records
// is the Pool's job; the bump allocator exists to make "total memory
// allocated for records" a meaningful, cheaply measurable quantity.
type Bump[T any] struct {
	threads []bumpThread[T]

	recordBytes int64
	slabRecords int
}

type bumpThread[T any] struct {
	slab []T
	next int

	// Single-writer statistics counters (core.Counter): written by the
	// owning tid, read racily by Stats.
	allocated   core.Counter
	deallocated core.Counter
	slabs       core.Counter
	_           [core.PadBytes]byte
}

// NewBump creates a bump allocator for n threads. slabRecords is the number
// of records reserved each time a thread exhausts its slab; zero or negative
// selects DefaultSlabRecords.
func NewBump[T any](n, slabRecords int) *Bump[T] {
	if n <= 0 {
		panic("arena: NewBump requires n >= 1")
	}
	if slabRecords <= 0 {
		slabRecords = DefaultSlabRecords
	}
	var zero T
	return &Bump[T]{
		threads:     make([]bumpThread[T], n),
		recordBytes: int64(unsafe.Sizeof(zero)),
		slabRecords: slabRecords,
	}
}

// Allocate returns the next record from thread tid's slab, reserving a new
// slab when the current one is exhausted.
func (b *Bump[T]) Allocate(tid int) *T {
	t := &b.threads[tid]
	if t.slab == nil || t.next == len(t.slab) {
		t.slab = make([]T, b.slabRecords)
		t.next = 0
		t.slabs.Inc()
	}
	rec := &t.slab[t.next]
	t.next++
	t.allocated.Inc()
	return rec
}

// Deallocate records that rec has been returned. The bump allocator never
// reuses memory itself (that is the Pool's job), so this only counts.
func (b *Bump[T]) Deallocate(tid int, rec *T) {
	if rec == nil {
		return
	}
	b.threads[tid].deallocated.Inc()
}

// Stats sums the per-thread counters.
func (b *Bump[T]) Stats() core.AllocStats {
	var s core.AllocStats
	for i := range b.threads {
		t := &b.threads[i]
		s.Allocated += t.allocated.Load()
		s.Deallocated += t.deallocated.Load()
	}
	s.AllocatedBytes = s.Allocated * b.recordBytes
	return s
}

// Heap is an Allocator that defers to the Go runtime allocator, playing the
// role of malloc/free in the paper's Experiment 3. Deallocate drops the
// record (the garbage collector reclaims it once truly unreachable), so
// records allocated by Heap are NOT type-stable; they are safe to use with
// every reclaimer in this module because reclaimers only hand records to
// their free sink, they never touch freed memory.
type Heap[T any] struct {
	threads     []heapThread
	recordBytes int64
}

type heapThread struct {
	// Single-writer statistics counters (core.Counter; see bumpThread).
	allocated   core.Counter
	deallocated core.Counter
	_           [core.PadBytes]byte
}

// NewHeap creates a heap allocator for n threads.
func NewHeap[T any](n int) *Heap[T] {
	if n <= 0 {
		panic("arena: NewHeap requires n >= 1")
	}
	var zero T
	return &Heap[T]{threads: make([]heapThread, n), recordBytes: int64(unsafe.Sizeof(zero))}
}

// Allocate returns a freshly allocated record.
func (h *Heap[T]) Allocate(tid int) *T {
	h.threads[tid].allocated.Inc()
	return new(T)
}

// Deallocate counts the return; the garbage collector does the actual work.
func (h *Heap[T]) Deallocate(tid int, rec *T) {
	if rec == nil {
		return
	}
	h.threads[tid].deallocated.Inc()
}

// Stats sums the per-thread counters.
func (h *Heap[T]) Stats() core.AllocStats {
	var s core.AllocStats
	for i := range h.threads {
		t := &h.threads[i]
		s.Allocated += t.allocated.Load()
		s.Deallocated += t.deallocated.Load()
	}
	s.AllocatedBytes = s.Allocated * h.recordBytes
	return s
}

// Compile-time interface checks.
var (
	_ core.Allocator[int] = (*Bump[int])(nil)
	_ core.Allocator[int] = (*Heap[int])(nil)
)

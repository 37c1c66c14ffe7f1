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
//
// A record type that stores its own index (Indexed) is also numbered by
// Bump: every slab it reserves is entered in one Directory shared by all
// threads, and record i of the s-th slab entered gets index s<<SlabShift | i.
// An index resolves by arithmetic, so a data structure can link such records
// by a 32-bit word instead of a pointer, and keep tags beside the index in a
// word it CASes. The directory holds every slab for the allocator's lifetime,
// so numbered records are never returned to the garbage collector: a
// structure that numbers its records must recycle them through a Pool.
package arena

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
)

// DefaultSlabRecords is the number of records reserved per slab by the Bump
// allocator.
const DefaultSlabRecords = 1 << SlabShift

// SlabShift is log2 of DefaultSlabRecords: an index's slab is idx>>SlabShift
// and its position in the slab idx&(DefaultSlabRecords-1).
const SlabShift = 12

// maxSlabs bounds a Directory so every index fits 32 bits.
const maxSlabs = 1 << (32 - SlabShift)

// Indexed is implemented by a record type that stores its own index. Bump
// calls SetIndex once for every record of a slab, before the slab's first
// record is handed out; the index never changes after that.
type Indexed interface {
	SetIndex(idx uint32)
}

// Directory resolves the indices of one Bump allocator's records. Slabs are
// only ever added, each before any of its records is handed out, so an index
// a thread has read from shared memory resolves in any directory state the
// thread loads after that read.
type Directory[T any] struct {
	slabs atomic.Pointer[[]*T] // the first record of every slab
	mu    sync.Mutex           // serialises add
}

// Slabs returns the first record of every slab entered so far, in index
// order, for Record. A caller resolving many indices may keep the slice and
// load it again when an index's slab is past its end.
func (d *Directory[T]) Slabs() []*T {
	if p := d.slabs.Load(); p != nil {
		return *p
	}
	return nil
}

// Record returns the record with index idx, given slabs from Slabs: the
// idx&(DefaultSlabRecords-1)-th record after the first of slab
// idx>>SlabShift. The offset is below the slab's length by construction, so
// the address is computed, not bounds-checked, and resolving an index reads
// one 8-byte directory entry; a directory of slices would read three times
// as many lines, and one of array pointers the first line of the slab too
// (the nil check), both on the critical path of every hop.
func Record[T any](slabs []*T, idx uint32) *T {
	var zero T
	off := uintptr(idx&(DefaultSlabRecords-1)) * unsafe.Sizeof(zero)
	return (*T)(unsafe.Add(unsafe.Pointer(slabs[idx>>SlabShift]), off))
}

// add enters slab and returns its number. The new slice header is published
// after the slab pointer is written beyond the old one's length, where no
// reader of the old header looks.
func (d *Directory[T]) add(slab []T) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.Slabs()
	if len(cur) == maxSlabs {
		panic("arena: directory full: 2^32 indexed records")
	}
	next := append(cur, &slab[0])
	d.slabs.Store(&next)
	return uint32(len(cur))
}

// Bump is a per-thread bump allocator over pre-reserved slabs.
//
// It intentionally has no free list: Deallocate only counts. Reuse of records
// is the Pool's job; the bump allocator exists to make "total memory
// allocated for records" a meaningful, cheaply measurable quantity.
type Bump[T any] struct {
	threads []bumpThread[T]

	recordBytes int64
	slabRecords int
	// dir numbers the records when T is Indexed (nil otherwise).
	dir *Directory[T]
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
// selects DefaultSlabRecords, the only size an Indexed record type takes.
func NewBump[T any](n, slabRecords int) *Bump[T] {
	if n <= 0 {
		panic("arena: NewBump requires n >= 1")
	}
	if slabRecords <= 0 {
		slabRecords = DefaultSlabRecords
	}
	var dir *Directory[T]
	if _, ok := any((*T)(nil)).(Indexed); ok {
		if slabRecords != DefaultSlabRecords {
			panic("arena: indexed records come in slabs of DefaultSlabRecords")
		}
		dir = new(Directory[T])
	}
	var zero T
	return &Bump[T]{
		threads:     make([]bumpThread[T], n),
		recordBytes: int64(unsafe.Sizeof(zero)),
		slabRecords: slabRecords,
		dir:         dir,
	}
}

// Directory returns the index directory of an Indexed record type's
// allocator, and nil for any other type.
func (b *Bump[T]) Directory() *Directory[T] { return b.dir }

// Allocate returns the next record from thread tid's slab, reserving a new
// slab when the current one is exhausted.
func (b *Bump[T]) Allocate(tid int) *T {
	t := &b.threads[tid]
	if t.slab == nil || t.next == len(t.slab) {
		t.slab = b.newSlab()
		t.next = 0
		t.slabs.Inc()
	}
	rec := &t.slab[t.next]
	t.next++
	t.allocated.Inc()
	return rec
}

// newSlab reserves a slab, numbering its records when T is Indexed.
func (b *Bump[T]) newSlab() []T {
	if b.dir == nil {
		return make([]T, b.slabRecords)
	}
	slab := make([]T, DefaultSlabRecords)
	base := b.dir.add(slab) << SlabShift
	for i := range slab {
		any(&slab[i]).(Indexed).SetIndex(base | uint32(i))
	}
	return slab
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

// Package core defines the Record Manager abstraction from Section 6 of the
// paper: the first Allocator-style abstraction suitable for lock-free
// programming. A data structure is written once against the Reclaimer,
// Pool and Allocator interfaces and any safe-memory-reclamation scheme
// (hazard pointers, classical EBR, DEBRA, DEBRA+, ...) can be plugged in by
// changing a single constructor call.
//
// Terminology follows the paper's record lifecycle (Figure 1):
//
//	unallocated -> allocate -> uninitialized -> insert -> in data structure
//	            -> remove (retire) -> retired -> safe to free -> reclaimed
//
// A Reclaimer decides when a retired record is safe to free; a Pool decides
// whether a freed record is reused or handed back to the Allocator; the
// Allocator is the ultimate source and sink of records.
package core

import "repro/internal/blockbag"

// Reclaimer is the safe-memory-reclamation component of a Record Manager: the
// scheme object, shared by the fixed set of n thread slots it was built for.
// It carries what is global to the scheme — its identity, its qualitative
// properties, its counters and its slot occupancy — and hands out the
// per-slot ReclaimerHandle through which every per-thread operation is
// issued. All six schemes and the fault plane's wrapper implement all of it.
type Reclaimer[T any] interface {
	// Name returns a short identifier such as "debra", "debra+", "hp".
	Name() string

	// Props describes the scheme's qualitative properties (Figure 2) and
	// the two runtime flags data structures branch on (PerRecordProtection,
	// CrashRecovery).
	Props() Properties

	// Handle returns slot's per-thread view (0 <= slot < n). The handle is
	// owned by whoever holds the slot: only that thread may call its methods.
	Handle(slot int) ReclaimerHandle[T]

	// Stats returns a snapshot of the reclaimer's counters.
	Stats() Stats

	// Occupancy returns the scheme's view of its n slots, through which the
	// Record Manager attaches its slot registry and the scans skip vacant
	// slots.
	Occupancy() *Occupancy

	// DrainLimbo frees every record still parked in the scheme's limbo
	// structures and returns the number freed; tid is the dense id charged
	// for the sink hand-off. It is only safe once every participant has
	// quiesced for good — the caller must guarantee that no thread holds
	// references to retired records and that no further operations begin
	// (the schemes verify the announced quiescence of every thread and panic
	// loudly when the precondition is violated, but they cannot see
	// references). Records that are still individually protected (hazard
	// pointers, DEBRA+ recovery protections) are skipped, not freed.
	DrainLimbo(tid int) int64
}

// ReclaimerHandle is one thread slot's view of a Reclaimer and the complete
// per-thread contract. Schemes implement it with a concrete per-slot struct
// that caches direct pointers to the slot's announcement word, limbo state
// and counters, so the per-operation cost is one interface dispatch and no
// per-thread slice indexing.
//
// The operation set is the union of what the schemes discussed in the paper
// need (Section 6): epoch-style quiescence (LeaveQstate/EnterQstate),
// hazard-pointer-style per-record protection (Protect/Unprotect), retiring
// (Retire), and the recovery protection used by DEBRA+
// (RProtect/RUnprotectAll). Schemes implement unused operations
// as cheap no-ops so that data-structure code can call them unconditionally,
// or consult Props() once and skip the per-record calls entirely.
type ReclaimerHandle[T any] interface {
	// LeaveQstate announces that the thread is starting a data structure
	// operation (leaving its quiescent state). It must be called at the
	// beginning of every operation.
	LeaveQstate()

	// EnterQstate announces that the thread has finished its operation and
	// holds no pointers to records of the data structure.
	EnterQstate()

	// IsQuiescent reports whether the thread is currently quiescent.
	IsQuiescent() bool

	// Retire hands the reclaimer a record the thread has removed from the
	// data structure. The record will be freed (passed to the free sink)
	// once no thread can be holding a pointer to it. Retire is legal from
	// any context of the owning thread, inside an operation or quiescent:
	// an epoch scheme pins a quiescent thread around the hand-off itself,
	// because only the thread's announcement bounds how far the epoch can
	// move past the one the retire reads.
	Retire(rec *T)

	// Protect announces that the thread may access rec. For hazard-pointer
	// style schemes this publishes an announcement and issues the required
	// fence; the caller must afterwards validate that rec is still
	// reachable (e.g. by re-reading the pointer it was loaded from) and
	// call Unprotect/restart if not. Epoch-based schemes do nothing.
	Protect(rec *T)

	// Unprotect revokes a previous Protect of rec.
	Unprotect(rec *T)

	// RProtect announces a recovery hazard pointer to rec (DEBRA+ only;
	// a no-op for other schemes). Recovery protections survive
	// neutralization and are released with RUnprotectAll.
	RProtect(rec *T)

	// RUnprotectAll releases all recovery protections held by the thread.
	RUnprotectAll()

	// Checkpoint gives the reclaimer an opportunity to deliver a pending
	// neutralization signal to the thread. Data structure bodies call it at
	// least once per search-loop iteration. It is a no-op for every scheme
	// except DEBRA+, where it may panic with a neutralization token that
	// the operation wrapper recovers (the Go analogue of siglongjmp).
	Checkpoint()
}

// FreeSink receives records that a Reclaimer has determined are safe to
// free, always as a detached block chain: a scheme moves a limbo bag's
// contents to the sink whole, without touching individual records. An object
// Pool is the usual sink (records get reused); experiment 1 of the paper uses
// a counting sink that discards records to measure reclamation overhead in
// isolation.
type FreeSink[T any] interface {
	// FreeBlocks takes ownership of a detached block chain whose first block
	// may be partial (or even empty) and whose every other block is full, as
	// Bag.DetachAll returns a whole limbo bag.
	FreeBlocks(tid int, chain *blockbag.Block[T])
	// BlockPool returns the block pool the sink empties tid's freed blocks
	// into. Thread tid's limbo bags draw from it, so blocks circulate
	// between limbo and sink without being reallocated; only the owner of
	// tid may use it.
	BlockPool(tid int) *blockbag.BlockPool[T]
}

// Allocator is the component that ultimately creates and destroys records.
type Allocator[T any] interface {
	// Allocate returns a new, zeroed record for thread tid.
	Allocate(tid int) *T
	// Deallocate returns a record to the operating system / runtime.
	Deallocate(tid int, rec *T)
	// Stats returns allocation counters (total records and bytes handed
	// out), which the harness uses to reproduce the paper's Figure 9
	// memory-footprint measurement.
	Stats() AllocStats
}

// Pool sits between the Reclaimer and the Allocator: freed records are
// recycled through the pool and reused by subsequent Allocate calls, and the
// pool decides when to fall back to (or unload records onto) the Allocator.
type Pool[T any] interface {
	FreeSink[T]
	// Handle returns thread tid's fast-path view (owned by tid).
	Handle(tid int) PoolHandle[T]
	// DrainThread moves thread tid's privately cached records to the pool's
	// shared structures (whole blocks; a sub-block tail may remain private),
	// so records freed by a departed goroutine are reusable by every other
	// thread instead of stranded until the slot is reacquired. It is called
	// by the slot's (former) owner, from a quiescent context, as part of
	// ReleaseHandle.
	DrainThread(tid int)
	// Stats returns pool counters.
	Stats() PoolStats
}

// Stats is a snapshot of a Reclaimer's counters. All values are cumulative
// since construction except Limbo, which is instantaneous.
type Stats struct {
	Retired         int64 // records passed to Retire
	Freed           int64 // records handed to the free sink
	Limbo           int64 // records currently retired but not yet freed
	EpochAdvances   int64 // successful epoch CASes (epoch-based schemes)
	Scans           int64 // completed verification passes (epoch schemes) / hazard pointer scans
	Neutralizations int64 // signals sent (DEBRA+ only)
}

// AllocStats is a snapshot of an Allocator's counters.
type AllocStats struct {
	Allocated      int64 // records handed out
	Deallocated    int64 // records returned
	AllocatedBytes int64 // bytes handed out (bump-pointer movement)
}

// PoolStats is a snapshot of a Pool's counters.
type PoolStats struct {
	Reused        int64 // Allocate calls served from the pool
	FromAllocator int64 // Allocate calls that fell through to the Allocator
	Freed         int64 // records received via Free/FreeBlocks
	ToShared      int64 // records moved to the shared bag
	FromShared    int64 // records taken from the shared bag
}

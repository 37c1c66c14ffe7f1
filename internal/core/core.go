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
// properties, its counters and its shard map — hands out the per-slot
// ReclaimerHandle through which every per-thread operation is issued, and
// takes the Record Manager's batched hand-offs (RetireBlock, under
// PinRetire/UnpinRetire when the slot is quiescent). All six schemes and the
// fault plane's wrapper implement all of it; only LimboDrainer is optional.
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

	// ShardMap returns the resolved placement of the n slots onto reclamation
	// shards. It also carries the slot registry through which scans skip
	// vacant slots, so schemes with nothing to shard (hazard pointers, the
	// leaking baseline) hold one too.
	ShardMap() *ShardMap

	// RetireBlock hands the reclaimer one detached FULL block of records
	// retired by slot tid — an O(1) splice into the scheme's block bags
	// instead of one Retire per record; ownership of the block transfers. In
	// exchange the scheme returns an empty block from its own caches when it
	// has one (nil otherwise), which the caller recycles into the buffer the
	// batch came from: at steady state blocks circulate between retire
	// buffers, limbo bags and the free sink without being reallocated. The
	// caller must be pinned as for Retire.
	RetireBlock(tid int, blk *blockbag.Block[T]) *blockbag.Block[T]

	// PinRetire marks slot tid as an active (non-quiescent) retirer and
	// UnpinRetire returns it to quiescence. The epoch schemes' Retire and
	// RetireBlock are only safe while the calling slot is non-quiescent: the
	// thread's announcement is what bounds how far the epoch can run ahead
	// of the one a retire observed, and therefore which limbo bag a
	// concurrent advance winner may drain. A retire from a quiescent context
	// has no such bound, so those schemes panic on it and offer this pair
	// instead — an announcement without the scan, rotation or neutralization
	// side effects of an operation boundary. Schemes with no epoch state
	// (hazard pointers, the leaking baseline) implement both as no-ops.
	//
	// A pair must not be issued inside an operation (between LeaveQstate and
	// EnterQstate): re-announcing would release the operation's own pin
	// while it may still hold references. Callers that may be either consult
	// IsQuiescent first, as ThreadHandle.FlushRetired does.
	PinRetire(tid int)
	UnpinRetire(tid int)
}

// ReclaimerHandle is one thread slot's view of a Reclaimer and the complete
// per-thread contract. Schemes implement it with a concrete per-slot struct
// that caches direct pointers to the slot's announcement word, limbo state
// and counters, so the per-operation cost is one interface dispatch and no
// per-thread slice indexing.
//
// The operation set is the union of what the schemes discussed in the paper
// need (Section 6): epoch-style quiescence (LeaveQstate/EnterQstate),
// hazard-pointer-style per-record protection (Protect/Unprotect/IsProtected),
// retiring (Retire), and the recovery protection used by DEBRA+
// (RProtect/RUnprotectAll/IsRProtected). Schemes implement unused operations
// as cheap no-ops so that data-structure code can call them unconditionally,
// or consult Props() once and skip the per-record calls entirely.
type ReclaimerHandle[T any] interface {
	// LeaveQstate announces that the thread is starting a data structure
	// operation (leaving its quiescent state). It must be called at the
	// beginning of every operation. The return value reports whether the
	// thread observed (and announced) a new epoch, which some callers use
	// for instrumentation; most ignore it.
	LeaveQstate() bool

	// EnterQstate announces that the thread has finished its operation and
	// holds no pointers to records of the data structure.
	EnterQstate()

	// IsQuiescent reports whether the thread is currently quiescent.
	IsQuiescent() bool

	// Retire hands the reclaimer a record the thread has removed from the
	// data structure. The record will be freed (passed to the free sink)
	// once no thread can be holding a pointer to it. The epoch schemes
	// require the thread to be pinned (see Reclaimer.PinRetire).
	Retire(rec *T)

	// Protect announces that the thread may access rec. For hazard-pointer
	// style schemes this publishes an announcement and issues the required
	// fence; the caller must afterwards validate that rec is still
	// reachable (e.g. by re-reading the pointer it was loaded from) and
	// call Unprotect/restart if not. Epoch-based schemes return true
	// without doing anything. The bool result is false only when the
	// scheme itself can already tell the protection failed.
	Protect(rec *T) bool

	// Unprotect revokes a previous Protect of rec.
	Unprotect(rec *T)

	// IsProtected reports whether the thread currently protects rec.
	IsProtected(rec *T) bool

	// RProtect announces a recovery hazard pointer to rec (DEBRA+ only;
	// a no-op for other schemes). Recovery protections survive
	// neutralization and are released with RUnprotectAll.
	RProtect(rec *T)

	// RUnprotectAll releases all recovery protections held by the thread.
	RUnprotectAll()

	// IsRProtected reports whether the thread holds a recovery protection
	// for rec. Schemes without crash recovery always return false.
	IsRProtected(rec *T) bool

	// Checkpoint gives the reclaimer an opportunity to deliver a pending
	// neutralization signal to the thread. Data structure bodies call it at
	// least once per search-loop iteration. It is a no-op for every scheme
	// except DEBRA+, where it may panic with a neutralization token that
	// the operation wrapper recovers (the Go analogue of siglongjmp).
	Checkpoint()
}

// LimboDrainer is the quiescent-shutdown extension of the Reclaimer
// contract: DrainLimbo frees every record still parked in the scheme's limbo
// structures, returning the number freed. It is only safe once every
// participant has quiesced for good — the caller must guarantee that no
// thread holds references to retired records and that no further operations
// begin (the schemes verify the announced quiescence of every thread and
// panic loudly when the precondition is violated, but they cannot see
// references). Records that are still individually protected (hazard
// pointers, DEBRA+ recovery protections) are skipped, not freed.
type LimboDrainer interface {
	// DrainLimbo frees the drainable limbo of every thread/shard; tid is the
	// dense id charged for the sink hand-off.
	DrainLimbo(tid int) int64
}

// RetireChain retires every record of a detached chain of full blocks (as
// Bag.DetachAllFullBlocks returns it) on behalf of slot tid of r, one O(1)
// RetireBlock splice per block. It returns the number of records retired.
// Spare blocks the scheme hands back are given to pool when non-nil and
// dropped otherwise.
func RetireChain[T any](r Reclaimer[T], tid int, chain *blockbag.Block[T], pool *blockbag.BlockPool[T]) int {
	n := 0
	for blk := chain; blk != nil; {
		next := blk.Next()
		n += blk.Len()
		if spare := r.RetireBlock(tid, blk); spare != nil && pool != nil {
			pool.Put(spare)
		}
		blk = next
	}
	return n
}

// FreeChain hands every record of a detached block chain to sink — whole
// blocks when blockSink is non-nil (ownership of the blocks transfers with
// them), record-at-a-time otherwise, recycling the emptied blocks into pool
// when one is supplied. Returns the number of records freed. This is the
// shared chain-freeing idiom of the schemes' drain paths.
func FreeChain[T any](sink FreeSink[T], blockSink BlockFreeSink[T], pool *blockbag.BlockPool[T], tid int, chain *blockbag.Block[T]) int64 {
	if chain == nil {
		return 0
	}
	n := int64(blockbag.ChainLen(chain))
	if blockSink != nil {
		blockSink.FreeBlocks(tid, chain)
		return n
	}
	for blk := chain; blk != nil; {
		next := blk.Next()
		for i := 0; i < blk.Len(); i++ {
			sink.Free(tid, blk.Record(i))
		}
		if pool != nil {
			pool.Put(blk)
		}
		blk = next
	}
	return n
}

// FreeSink receives records that a Reclaimer has determined are safe to
// free. An object Pool is the usual sink (records get reused); experiment 1
// of the paper uses a counting sink that discards records to measure
// reclamation overhead in isolation.
type FreeSink[T any] interface {
	// Free hands a single reclaimed record to the sink.
	Free(tid int, rec *T)
}

// BlockFreeSink is an optional optimisation interface: sinks that store
// records in block bags can accept whole detached blocks in O(1), which is
// how DEBRA moves the contents of a limbo bag to the pool without touching
// individual records.
type BlockFreeSink[T any] interface {
	FreeSink[T]
	// FreeBlocks accepts a detached chain of full blocks.
	FreeBlocks(tid int, chain *blockbag.Block[T])
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
	// Allocate returns a record for thread tid, reusing a pooled record
	// when one is available and calling the Allocator otherwise.
	Allocate(tid int) *T
	// Stats returns pool counters.
	Stats() PoolStats
}

// ThreadDrainer is the slot-release extension of the Pool contract: pools
// that keep per-thread private bags can hand a released slot's cached
// records back to their shared structures, so records freed by a departed
// goroutine are reusable by every other thread instead of stranded until
// the slot is reacquired. DrainThread is called by the slot's (former)
// owner, from a quiescent context, as part of ReleaseHandle.
type ThreadDrainer interface {
	// DrainThread moves thread tid's privately cached records to the pool's
	// shared structures (whole blocks; a sub-block tail may remain private).
	DrainThread(tid int)
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
	Restarts        int64 // operations restarted because of the scheme (HP)
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

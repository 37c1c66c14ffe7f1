package core

import (
	"fmt"
	"sync/atomic"
)

// This file implements the thread-slot registry. The schemes, pool,
// allocator and handle tables are sized once, at construction, for a fixed
// capacity of dense thread ids — that is what makes their per-thread state a
// flat padded array with no indirection on the hot path — and the registry
// decides which goroutine owns which id: slots are acquired and released at
// runtime through a lock-free free list, and per-shard occupancy summary
// words let the schemes' announcement scans skip slots nobody currently owns.
//
// # Slot states
//
// Every worker slot is in one of two states:
//
//   - vacant: unowned. A vacant slot is quiescent by construction (see the
//     release contract below), so reclamation scans may skip it.
//   - held: owned by a goroutine that called Acquire; Release returns it to
//     the free list for reuse.
//
// # Why skipping a vacant slot is safe
//
// A slot only becomes vacant through Release, whose caller (the Record
// Manager) requires the slot to be quiescent and its retire buffer drained
// first — so a vacant slot has no active announcement, no hazard pointers
// and no parked retirements, and treating it as quiescent is not an
// approximation but the truth. The remaining race — a scanner reads the slot
// as vacant while another goroutine concurrently acquires it and announces —
// is exactly the classic quiescent-thread-wakes-during-scan race every epoch
// scheme already tolerates: the waking thread announces the *current* epoch
// (and a hazard-pointer protect must still validate reachability), so the
// scanner's verdict was correct at the instant it read the summary, which is
// all the advance argument needs. Occupancy is published with sequentially
// consistent atomics: the acquirer's occupancy store precedes every
// announcement it can make, so a scanner that misses the occupancy saw the
// slot before it could have been anything but quiescent.
//
// # Why a reused slot cannot inherit a stale announcement
//
// Release requires quiescence (the epoch/HP announcement is already
// withdrawn, enforced with a panic) and drains the slot's deferred-retire
// buffer under the scheme's retire pin before the slot is pushed onto the
// free list. The
// free-list push/pop CAS pair is the happens-before edge to the next
// acquirer, so by the time Acquire returns the tid, its last announcement is
// visibly quiescent and its buffers are empty: the new owner starts from the
// same state a freshly constructed thread slot has.

// Slot states (the values of a slot's state word).
const (
	slotVacant int32 = iota // unowned; scans may skip it
	slotHeld                // owned via Acquire; Release returns it
)

// slotState is one slot's registry state, padded so the state words of
// neighbouring slots (written on acquire/release, read by scanners) do not
// share cache lines.
type slotState struct {
	// state is the slot's occupancy word (slotVacant/slotHeld).
	state atomic.Int32
	// next is the slot's free-list link: the (index+1) of the next free slot,
	// 0 for end-of-list. Written by the pusher before the head CAS publishes
	// it; a stale read is caught by the head's tag.
	next atomic.Uint32
	_    [PadBytes]byte
}

// shardOcc is one shard's occupancy summary word: the number of registry
// slots in the shard that are currently held, padded onto its own cache
// lines.
type shardOcc struct {
	occ atomic.Int64
	_   [PadBytes]byte
}

// freeHead is one shard's free-list head word, padded so neighbouring
// shards' heads (CASed on every acquire/release in that shard) do not share
// cache lines. The low 32 bits hold (index+1) of the top slot (0 = empty),
// the high 32 bits a tag bumped by every successful CAS, which defeats ABA
// on the Treiber stack.
type freeHead struct {
	head atomic.Uint64
	_    [PadBytes]byte
}

// SlotRegistry hands out dense thread ids ("slots") in [0, Capacity()) at
// runtime: Acquire pops a vacant slot from a lock-free free list, Release
// returns it. All methods are safe for concurrent use. The registry is the
// mechanism only — the safety half of the release contract (quiescence,
// drained buffers) is enforced by RecordManager.ReleaseHandle, which is the
// entry point applications use.
//
// # Per-shard free lists
//
// The free list is partitioned by shard (one Treiber stack per shard of the
// attached ShardMap; a single stack when there is none): a slot is pushed to
// and popped from its home shard's list only, so slots never migrate between
// lists. Acquire scans the lists in ascending shard order, so low tids are
// preferred.
type SlotRegistry struct {
	capacity int
	smap     *ShardMap // nil for a registry built on its own

	// heads is one free-list head per shard (length 1 when smap is nil);
	// homes maps a slot to its immutable free-list index.
	heads []freeHead
	homes []int

	slots  []slotState
	shards []shardOcc // nil when smap is nil
}

// NewSlotRegistry creates a registry for capacity worker slots. smap, when
// non-nil, is the reclaimer's shard map; the registry then maintains one
// occupancy summary word and one free list per shard. All slots start
// vacant, with each shard's free list ordered ascending, so the first
// Acquire returns slot 0 — the dense-id habit everything downstream relies
// on.
func NewSlotRegistry(capacity int, smap *ShardMap) *SlotRegistry {
	if capacity <= 0 {
		panic("core: NewSlotRegistry requires capacity >= 1")
	}
	if smap != nil && smap.Threads() > capacity {
		// A map member with no slot would never count as live, so the scans
		// would skip it while it runs.
		panic(fmt.Sprintf("core: NewSlotRegistry: shard map covers %d threads but capacity is %d", smap.Threads(), capacity))
	}
	lists := 1
	if smap != nil {
		lists = smap.Shards()
	}
	r := &SlotRegistry{
		capacity: capacity,
		smap:     smap,
		heads:    make([]freeHead, lists),
		homes:    make([]int, capacity),
		slots:    make([]slotState, capacity),
	}
	if smap != nil {
		for i := 0; i < capacity; i++ {
			r.homes[i] = smap.ShardOf(i)
		}
	}
	// Build the initial free lists in descending push order so pops come out
	// ascending within each shard (slot 0 first in shard 0), matching the
	// dense-id habits of everything downstream (shard placement, NUMA
	// pinning, test expectations).
	for i := capacity - 1; i >= 0; i-- {
		r.pushFree(i)
	}
	if smap != nil {
		r.shards = make([]shardOcc, smap.Shards())
	}
	return r
}

// Capacity returns the number of worker slots the registry manages.
func (r *SlotRegistry) Capacity() int { return r.capacity }

// Shards returns the number of per-shard free lists (1 without a shard map).
func (r *SlotRegistry) Shards() int { return len(r.heads) }

// pushFree pushes slot i onto its home shard's free list.
func (r *SlotRegistry) pushFree(i int) {
	h := &r.heads[r.homes[i]].head
	for {
		old := h.Load()
		r.slots[i].next.Store(uint32(old))
		next := (old>>32+1)<<32 | uint64(uint32(i+1))
		if h.CompareAndSwap(old, next) {
			return
		}
	}
}

// popFree pops a slot from shard list l; ok is false when the list is
// empty. Lock-free: a CAS failure means another pop or push won, and the
// tag in the head word rules out ABA against a concurrently recycled slot.
func (r *SlotRegistry) popFree(l int) (int, bool) {
	h := &r.heads[l].head
	for {
		old := h.Load()
		idx := int(uint32(old)) - 1
		if idx < 0 {
			return -1, false
		}
		link := uint64(r.slots[idx].next.Load())
		next := (old>>32+1)<<32 | uint64(uint32(link))
		if h.CompareAndSwap(old, next) {
			return idx, true
		}
	}
}

// noteOccupied bumps the occupancy summary of tid's shard.
func (r *SlotRegistry) noteOccupied(tid int) {
	if r.shards != nil {
		r.shards[r.smap.ShardOf(tid)].occ.Add(1)
	}
}

// noteVacant drops the occupancy summary of tid's shard.
func (r *SlotRegistry) noteVacant(tid int) {
	if r.shards != nil {
		r.shards[r.smap.ShardOf(tid)].occ.Add(-1)
	}
}

// Acquire pops a vacant slot and marks it held, returning its dense tid. ok
// is false when every slot is held. The occupancy summary is published
// before Acquire returns, so the slot is visible to scanners before its new
// owner can announce anything.
//
// The multi-list scan is not one atomic snapshot, but it stays
// linearizable: slots never migrate between lists, so a scan that finds
// every list empty while a concurrent Release pushes is indistinguishable
// from the Acquire having run entirely before the Release.
func (r *SlotRegistry) Acquire() (int, bool) {
	for l := range r.heads {
		if idx, ok := r.popFree(l); ok {
			r.slots[idx].state.Store(slotHeld)
			r.noteOccupied(idx)
			return idx, true
		}
	}
	return -1, false
}

// Release marks a held slot vacant and returns it to the free list. It
// panics when tid is not currently held (a double release). The caller
// (RecordManager.ReleaseHandle) has already verified quiescence and drained
// the slot's buffers; after the push the slot is immediately reusable.
func (r *SlotRegistry) Release(tid int) {
	if tid < 0 || tid >= r.capacity {
		panic(fmt.Sprintf("core: SlotRegistry.Release(%d) out of range [0,%d)", tid, r.capacity))
	}
	if !r.slots[tid].state.CompareAndSwap(slotHeld, slotVacant) {
		panic(fmt.Sprintf("core: SlotRegistry.Release(%d): slot is not held (double release)", tid))
	}
	r.noteVacant(tid)
	r.pushFree(tid)
}

// Occupied reports whether tid is currently held.
func (r *SlotRegistry) Occupied(tid int) bool {
	return r.slots[tid].state.Load() != slotVacant
}

// Live returns the number of currently occupied slots (instrumentation).
func (r *SlotRegistry) Live() int {
	n := 0
	for i := range r.slots {
		if r.slots[i].state.Load() != slotVacant {
			n++
		}
	}
	return n
}

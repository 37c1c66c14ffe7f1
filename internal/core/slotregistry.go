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
// runtime through a lock-free free list, and the schemes' announcement scans
// skip slots nobody currently owns (Occupancy).
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
// Manager) requires the slot to be quiescent first — so a vacant slot has no
// active announcement and no hazard pointers, and treating it as quiescent is not an
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
// withdrawn, enforced with a panic) before the slot is pushed onto the free
// list. The free-list push/pop CAS pair is the happens-before edge to the next
// acquirer, so by the time Acquire returns the tid, its last announcement is
// visibly quiescent: the new owner inherits no announcement from the last.

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

// SlotRegistry hands out dense thread ids ("slots") in [0, Capacity()) at
// runtime: Acquire pops a vacant slot from a lock-free free list, Release
// returns it. All methods are safe for concurrent use. The registry is the
// mechanism only — the safety half of the release contract (quiescence,
// drained buffers) is enforced by RecordManager.ReleaseHandle, which is the
// entry point applications use.
type SlotRegistry struct {
	capacity int
	slots    []slotState

	// head is the free list's head word, on its own cache lines. The low 32
	// bits hold (index+1) of the top slot (0 = empty), the high 32 bits a tag
	// bumped by every successful CAS, which defeats ABA on the Treiber stack.
	_    [PadBytes]byte
	head atomic.Uint64
	// live counts the held slots, on its own cache lines.
	_    [PadBytes]byte
	live atomic.Int64
	_    [PadBytes]byte
}

// NewSlotRegistry creates a registry for capacity worker slots. All slots
// start vacant, with the free list ordered ascending, so the first Acquire
// returns slot 0 — the dense-id habit everything downstream relies on.
func NewSlotRegistry(capacity int) *SlotRegistry {
	if capacity <= 0 {
		panic("core: NewSlotRegistry requires capacity >= 1")
	}
	r := &SlotRegistry{capacity: capacity, slots: make([]slotState, capacity)}
	// Push in descending order so pops come out ascending.
	for i := capacity - 1; i >= 0; i-- {
		r.pushFree(i)
	}
	return r
}

// Capacity returns the number of worker slots the registry manages.
func (r *SlotRegistry) Capacity() int { return r.capacity }

// pushFree pushes slot i onto the free list.
func (r *SlotRegistry) pushFree(i int) {
	h := &r.head
	for {
		old := h.Load()
		r.slots[i].next.Store(uint32(old))
		next := (old>>32+1)<<32 | uint64(uint32(i+1))
		if h.CompareAndSwap(old, next) {
			return
		}
	}
}

// popFree pops a slot from the free list; ok is false when it is empty.
// Lock-free: a CAS failure means another pop or push won, and the tag in the
// head word rules out ABA against a concurrently recycled slot.
func (r *SlotRegistry) popFree() (int, bool) {
	h := &r.head
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

// Acquire pops a vacant slot and marks it held, returning its dense tid. ok
// is false when every slot is held. Occupancy is published before Acquire
// returns, so the slot is visible to scanners before its new owner can
// announce anything.
func (r *SlotRegistry) Acquire() (int, bool) {
	idx, ok := r.popFree()
	if !ok {
		return -1, false
	}
	r.slots[idx].state.Store(slotHeld)
	r.live.Add(1)
	return idx, true
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
	r.live.Add(-1)
	r.pushFree(tid)
}

// Occupied reports whether tid is currently held.
func (r *SlotRegistry) Occupied(tid int) bool {
	return r.slots[tid].state.Load() != slotVacant
}

// Live returns the number of currently held slots. It may lag a concurrent
// Acquire or Release by one transition each.
func (r *SlotRegistry) Live() int { return int(r.live.Load()) }

// Occupancy is a reclaimer's view of its n thread slots: how many there are
// and, once a Record Manager has attached its slot registry, which of them
// are owned. Scan paths treat an unowned slot exactly like one observed
// quiescent. Without a registry every slot reads as occupied — the
// behaviour of a scheme driven directly by tid, as the unit tests do.
type Occupancy struct {
	n   int
	reg *SlotRegistry
}

// NewOccupancy returns the occupancy of n slots with no registry attached.
func NewOccupancy(n int) *Occupancy {
	if n <= 0 {
		panic("core: NewOccupancy requires n >= 1")
	}
	return &Occupancy{n: n}
}

// Threads returns the number of slots n.
func (o *Occupancy) Threads() int { return o.n }

// Attach attaches a slot registry covering at least the n slots. It must be
// called before concurrent use of the reclaimer (the Record Manager attaches
// at construction, which precedes any worker goroutine); attaching a second
// registry — two managers built over one reclaimer — panics, because the
// second would silently shadow the first's occupancy.
func (o *Occupancy) Attach(r *SlotRegistry) {
	if r.Capacity() < o.n {
		// A slot the registry cannot hand out would read as vacant forever,
		// so the scans would skip it while a raw caller runs it.
		panic(fmt.Sprintf("core: Occupancy.Attach: %d slots but registry capacity %d", o.n, r.Capacity()))
	}
	if o.reg != nil && o.reg != r {
		panic("core: Occupancy already has a slot registry attached (one reclaimer cannot serve two Record Managers' slot registries)")
	}
	o.reg = r
}

// Occupied reports whether slot tid is owned; true when no registry is
// attached.
func (o *Occupancy) Occupied(tid int) bool { return o.reg == nil || o.reg.Occupied(tid) }

// Live returns the number of owned slots, or -1 when no registry is attached
// (occupancy unknown: scan everything). A thread that finds Live() <= 1
// while it holds its own slot is the only occupant, and every other slot is
// quiescent.
func (o *Occupancy) Live() int {
	if o.reg == nil {
		return -1
	}
	return o.reg.Live()
}

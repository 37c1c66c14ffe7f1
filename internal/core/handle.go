package core

// This file implements the per-thread handle layer: the Record Manager's
// answer to the observation (Hart et al., and the paper's own O(1)-per-op
// claim) that reclamation scheme comparisons are dominated by per-operation
// constants. A goroutine acquires a ThreadHandle for its working lifetime;
// the handle caches everything a steady-state operation needs — the slot's
// deferred-retire buffer, its pool fast path, the scheme's per-slot
// ReclaimerHandle, and whether its retires need a pin — so an operation
// performs zero slice indexing and at most one interface call per Record
// Manager primitive.

// PoolHandle is the per-thread fast-path view of a Pool: allocation and free
// with the thread's private pool bag resolved at construction.
type PoolHandle[T any] interface {
	// Allocate returns a record, preferring the thread's private bag.
	Allocate() *T
	// Free returns a record to the thread's private bag.
	Free(rec *T)
}

// HandledPool is implemented by pools that provide per-thread handles.
type HandledPool[T any] interface {
	// Handle returns thread tid's fast-path view (owned by tid).
	Handle(tid int) PoolHandle[T]
}

// genericPoolHandle adapts any Pool to PoolHandle.
type genericPoolHandle[T any] struct {
	pool Pool[T]
	tid  int
}

func (g *genericPoolHandle[T]) Allocate() *T { return g.pool.Allocate(g.tid) }
func (g *genericPoolHandle[T]) Free(rec *T)  { g.pool.Free(g.tid, rec) }

// ThreadHandle is one worker slot's pre-resolved view of a RecordManager and
// the only way to issue a per-thread operation on it. Obtain one with
// RecordManager.AcquireHandle for the goroutine's working lifetime — not per
// operation — and return it with ReleaseHandle. All methods are owner-only:
// the goroutine that acquired the handle (or one it handed the handle to
// with a happens-before edge) is the slot's single thread.
type ThreadHandle[T any] struct {
	tid int
	m   *RecordManager[T]

	fast   ReclaimerHandle[T] // the scheme's per-slot view (never nil)
	buf    *retireBuf[T]      // deferred-retire buffer; nil when batching is off
	batch  int64              // buf's flush threshold (the manager's batch size)
	pool   PoolHandle[T]      // pool fast path; nil when records are not reused
	alloc  Allocator[T]
	pinner Reclaimer[T] // the scheme when its retires need a pin, else nil

	perRecord     bool
	crashRecovery bool
}

// newHandle resolves slot tid's handle.
func (m *RecordManager[T]) newHandle(tid int) ThreadHandle[T] {
	h := ThreadHandle[T]{
		tid:           tid,
		m:             m,
		fast:          m.reclaimer.Handle(tid),
		alloc:         m.alloc,
		pinner:        m.pinner,
		perRecord:     m.perRecord,
		crashRecovery: m.crashRecovery,
	}
	if tid < len(m.bufs) {
		h.buf = &m.bufs[tid]
		h.batch = int64(m.batch)
	}
	if m.pool != nil {
		if hp, ok := m.pool.(HandledPool[T]); ok {
			h.pool = hp.Handle(tid)
		} else {
			h.pool = &genericPoolHandle[T]{pool: m.pool, tid: tid}
		}
	}
	return h
}

// AcquireHandle binds the calling goroutine to a vacant worker slot and
// returns the slot's thread handle, re-initialised for its new owner.
// Goroutines acquire a slot for their working lifetime and release it with
// ReleaseHandle, so a server does not need to know its peak goroutine count
// per worker — only the capacity (recordmgr.Config.MaxThreads) of the
// manager. A fresh manager hands out slots 0, 1, 2, … in shard order (see
// NewSlotRegistry). Panics when every slot is held; use TryAcquireHandle to
// handle exhaustion gracefully.
func (m *RecordManager[T]) AcquireHandle() *ThreadHandle[T] {
	h, ok := m.TryAcquireHandle()
	if !ok {
		panic("core: AcquireHandle: every worker slot is held (raise MaxThreads)")
	}
	return h
}

// TryAcquireHandle is AcquireHandle that reports exhaustion instead of
// panicking.
func (m *RecordManager[T]) TryAcquireHandle() (*ThreadHandle[T], bool) {
	tid, ok := m.reg.Acquire()
	if !ok {
		return nil, false
	}
	// Re-initialise the slot's table entry for its new owner. The previous
	// owner's release (free-list push) happens-before this pop, so the write
	// does not race its final reads; everything the handle caches is
	// per-slot state that survives reuse, but rebuilding keeps any handle
	// field ever added from leaking one owner's view to the next.
	m.handles[tid] = m.newHandle(tid)
	return &m.handles[tid], true
}

// ReleaseHandle returns an acquired slot to the registry for reuse. Release
// is only legal from a quiescent state: EnterQstate has run and, for hazard
// pointers, every protection is released — violations panic, because a
// vacant slot is skipped by reclamation scans and an active announcement
// left behind would be invisible. ReleaseHandle then drains the slot's
// deferred-retire buffer (FlushRetired, under the scheme's retire pin) and
// hands the slot's private pool cache back to the shared pool, so a reused
// slot starts from a fresh, empty state and records freed by the departed
// goroutine stay reusable by everyone.
func (m *RecordManager[T]) ReleaseHandle(h *ThreadHandle[T]) {
	if h == nil || h.m != m {
		panic("core: ReleaseHandle of a handle from a different manager")
	}
	if !h.fast.IsQuiescent() {
		panic("core: ReleaseHandle from a non-quiescent slot; call EnterQstate (and release protections) first")
	}
	h.FlushRetired()
	if d, ok := m.pool.(ThreadDrainer); ok {
		d.DrainThread(h.tid)
	}
	m.reg.Release(h.tid)
}

// Tid returns the dense thread id (worker slot) the handle is bound to.
func (h *ThreadHandle[T]) Tid() int { return h.tid }

// Manager returns the RecordManager the handle views.
func (h *ThreadHandle[T]) Manager() *RecordManager[T] { return h.m }

// NeedsPerRecordProtection mirrors RecordManager.NeedsPerRecordProtection.
func (h *ThreadHandle[T]) NeedsPerRecordProtection() bool { return h.perRecord }

// SupportsCrashRecovery mirrors RecordManager.SupportsCrashRecovery.
func (h *ThreadHandle[T]) SupportsCrashRecovery() bool { return h.crashRecovery }

// LeaveQstate marks the start of an operation by the handle's thread.
func (h *ThreadHandle[T]) LeaveQstate() bool { return h.fast.LeaveQstate() }

// EnterQstate marks the end of an operation by the handle's thread.
func (h *ThreadHandle[T]) EnterQstate() { h.fast.EnterQstate() }

// IsQuiescent reports whether the handle's thread is quiescent.
func (h *ThreadHandle[T]) IsQuiescent() bool { return h.fast.IsQuiescent() }

// Checkpoint delivers a pending neutralization signal, if any (DEBRA+).
func (h *ThreadHandle[T]) Checkpoint() { h.fast.Checkpoint() }

// Protect announces that the thread may access rec (ReclaimerHandle.Protect).
func (h *ThreadHandle[T]) Protect(rec *T) bool { return h.fast.Protect(rec) }

// Unprotect revokes a Protect.
func (h *ThreadHandle[T]) Unprotect(rec *T) { h.fast.Unprotect(rec) }

// IsProtected reports whether the thread currently protects rec.
func (h *ThreadHandle[T]) IsProtected(rec *T) bool { return h.fast.IsProtected(rec) }

// RProtect announces a recovery protection (DEBRA+).
func (h *ThreadHandle[T]) RProtect(rec *T) { h.fast.RProtect(rec) }

// RUnprotectAll releases all recovery protections held by the thread.
func (h *ThreadHandle[T]) RUnprotectAll() { h.fast.RUnprotectAll() }

// IsRProtected reports whether the thread holds a recovery protection of rec.
func (h *ThreadHandle[T]) IsRProtected(rec *T) bool { return h.fast.IsRProtected(rec) }

// Allocate returns a record for the handle's thread, preferring the pool.
func (h *ThreadHandle[T]) Allocate() *T {
	if h.pool != nil {
		return h.pool.Allocate()
	}
	return h.alloc.Allocate(h.tid)
}

// Deallocate returns an unused (never inserted or already reclaimed) record
// directly to the pool or allocator. Records that were inserted into the
// data structure must be Retired instead.
func (h *ThreadHandle[T]) Deallocate(rec *T) {
	if h.pool != nil {
		h.pool.Free(rec)
		return
	}
	h.alloc.Deallocate(h.tid, rec)
}

// Retire hands a removed record to the reclaimer — through the slot's
// deferred-retire buffer when batching is enabled (a buffer append with no
// interface call at all), directly otherwise. Unlike the raw scheme Retire
// (which the epoch schemes reject from a quiescent context), this is safe
// from any same-thread context: a quiescent caller — a data-structure
// postamble after EnterQstate, a DEBRA+ recovery path — is routed through the
// scheme's pin-while-retiring entry point so the hand-off happens under an
// active announcement.
func (h *ThreadHandle[T]) Retire(rec *T) {
	if b := h.buf; b != nil {
		b.bag.Add(rec)
		b.pending.Inc()
		if b.pending.Load() >= h.batch {
			h.FlushRetired()
		}
		return
	}
	if h.pinner != nil && h.fast.IsQuiescent() {
		h.pinner.PinRetire(h.tid)
		h.fast.Retire(rec)
		h.pinner.UnpinRetire(h.tid)
		return
	}
	h.fast.Retire(rec)
}

// FlushRetired hands every record parked in the slot's deferred-retire
// buffer to the reclaimer. Full blocks transfer as O(1) splices
// (Reclaimer.RetireBlock); the partial tail (always fewer than
// blockbag.BlockSize records) is retired record-at-a-time. A no-op when
// batching is disabled.
//
// Contract: when the thread is quiescent (ReleaseHandle, Close, tests), the
// hand-off is wrapped in the scheme's pin-while-retiring entry point, because
// the epoch schemes' retire paths are only safe under an active announcement
// — a quiescent retirer's observed epoch can go arbitrarily stale before its
// records land in a limbo bag, racing an advance winner's drain of that very
// bag (see Reclaimer.PinRetire). When the thread is mid-operation the
// operation's own pin already covers the hand-off and no extra pin is taken.
func (h *ThreadHandle[T]) FlushRetired() {
	b := h.buf
	if b == nil || b.pending.Load() == 0 {
		return
	}
	if h.pinner != nil && h.fast.IsQuiescent() {
		h.pinner.PinRetire(h.tid)
		defer h.pinner.UnpinRetire(h.tid)
	}
	if chain := b.bag.DetachAllFullBlocks(); chain != nil {
		RetireChain(h.m.reclaimer, h.tid, chain, b.pool)
	}
	b.bag.Drain(h.fast.Retire)
	b.pending.Store(0)
}

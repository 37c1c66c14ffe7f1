package core

// RecordManager composes an Allocator, a Pool and a Reclaimer into the
// single object a data structure programs against (the paper's Record
// Manager, Figure 7). The manager itself carries construction, the slot
// registry (AcquireHandle/ReleaseHandle), shutdown, statistics and the
// capability queries; the union of the components' per-thread operations is
// issued through the ThreadHandle a goroutine acquires. The data structure
// never needs to know which concrete scheme is behind it, so interchanging
// reclamation, pooling and allocation strategies is a one-line change at
// construction time.
//
// The type parameter T is the record type managed (for example a tree node).
// Data structures that use several record types create one RecordManager per
// type, or fold the types into a single record with a kind discriminator;
// the reclaimers in this module are cheap enough that either choice works.
type RecordManager[T any] struct {
	alloc     Allocator[T]
	pool      Pool[T]
	reclaimer Reclaimer[T]

	// perRecord caches Props().PerRecordProtection so hot paths can branch
	// on a plain bool field.
	perRecord bool
	// crashRecovery caches Props().CrashRecovery.
	crashRecovery bool

	// handles is the per-slot handle table AcquireHandle hands out pointers
	// into, sized to the scheme's participant count. An entry is
	// re-initialised in place each time the slot registry reuses the slot.
	handles []ThreadHandle[T]
	// reg is the thread-slot registry over the manager's worker slots:
	// AcquireHandle/ReleaseHandle bind goroutines to dense tids at runtime.
	reg *SlotRegistry
}

// NewRecordManager assembles a Record Manager from its three components.
// pool may be nil, in which case Allocate goes straight to the allocator and
// freed records are discarded (the configuration of the paper's Experiment 1,
// where reclamation work is performed but records are not reused).
func NewRecordManager[T any](alloc Allocator[T], pool Pool[T], rec Reclaimer[T]) *RecordManager[T] {
	if alloc == nil {
		panic("core: NewRecordManager requires an Allocator")
	}
	if rec == nil {
		panic("core: NewRecordManager requires a Reclaimer")
	}
	props := rec.Props()
	m := &RecordManager[T]{
		alloc:         alloc,
		pool:          pool,
		reclaimer:     rec,
		perRecord:     props.PerRecordProtection,
		crashRecovery: props.CrashRecovery,
	}
	// Build the per-slot handle table for every participant the scheme was
	// constructed for, so AcquireHandle returns a pointer into this table
	// rather than an allocation.
	occ := rec.Occupancy()
	n := occ.Threads()
	m.handles = make([]ThreadHandle[T], n)
	for i := range m.handles {
		m.handles[i] = m.newHandle(i)
	}
	// Attaching the slot registry is what lets the schemes' scan paths
	// consult occupancy.
	m.reg = NewSlotRegistry(n)
	occ.Attach(m.reg)
	return m
}

// SlotRegistry returns the manager's dynamic thread-slot registry
// (instrumentation; applications go through AcquireHandle/ReleaseHandle).
func (m *RecordManager[T]) SlotRegistry() *SlotRegistry { return m.reg }

// WorkerSlots returns the number of acquirable worker slots (the slot
// registry's capacity). Data structures size their per-slot tables from
// this.
func (m *RecordManager[T]) WorkerSlots() int { return m.reg.Capacity() }

// Allocator returns the underlying allocator.
func (m *RecordManager[T]) Allocator() Allocator[T] { return m.alloc }

// Pool returns the underlying pool (nil when records are not reused).
func (m *RecordManager[T]) Pool() Pool[T] { return m.pool }

// Reclaimer returns the underlying reclaimer.
func (m *RecordManager[T]) Reclaimer() Reclaimer[T] { return m.reclaimer }

// Close shuts the Record Manager's reclamation pipeline down
// deterministically: the scheme's remaining limbo is force-freed
// (Reclaimer.DrainLimbo) — after which Retired == Freed for every reclaiming
// scheme. Contract: every worker has quiesced
// (EnterQstate) and performs no further operations; the caller has joined
// the worker goroutines (that join is the happens-before edge under which
// Close may touch their single-owner limbo bags). Close is idempotent.
func (m *RecordManager[T]) Close() {
	m.reclaimer.DrainLimbo(0)
}

// NeedsPerRecordProtection reports whether the reclaimer requires Protect to
// be called (and validated) for every record accessed. Data structures read
// this once and skip the protection path entirely for epoch-based schemes,
// mirroring the paper's compile-time elimination of no-op protect calls.
func (m *RecordManager[T]) NeedsPerRecordProtection() bool { return m.perRecord }

// SupportsCrashRecovery reports whether the reclaimer neutralizes stalled
// threads, in which case operations must be wrapped in recovery code.
func (m *RecordManager[T]) SupportsCrashRecovery() bool { return m.crashRecovery }

// Stats aggregates the statistics of all three components.
func (m *RecordManager[T]) Stats() ManagerStats {
	s := ManagerStats{
		Reclaimer: m.reclaimer.Stats(),
		Alloc:     m.alloc.Stats(),
	}
	if m.pool != nil {
		s.Pool = m.pool.Stats()
	}
	s.Unreclaimed = s.Reclaimer.Limbo
	return s
}

// ManagerStats bundles the statistics of the three Record Manager
// components.
type ManagerStats struct {
	Reclaimer Stats
	Alloc     AllocStats
	Pool      PoolStats
	// Unreclaimed is the number of retired-but-not-freed records, the
	// paper's central quantity: Reclaimer.Limbo, which every record reaches
	// at its ThreadHandle.Retire.
	Unreclaimed int64
}

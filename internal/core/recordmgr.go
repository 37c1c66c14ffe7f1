package core

import "repro/internal/blockbag"

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

	// batch is the deferred-retire batch size; 0 disables batching and
	// Retire goes straight to the reclaimer.
	batch int
	// bufs holds the per-thread deferred-retire buffers when batching is
	// enabled. A retired record parks in its thread's buffer until the
	// buffer reaches the batch size, then the whole batch is handed to the
	// reclaimer — as an O(1) block splice (Reclaimer.RetireBlock) when the
	// batch fills whole blocks.
	bufs []retireBuf[T]
	// pinner is the reclaimer when its retires need a pin (nil otherwise);
	// ThreadHandle.Retire/FlushRetired use its PinRetire/UnpinRetire to make
	// the hand-off from a quiescent caller safe.
	pinner Reclaimer[T]
	// handles is the per-slot handle table AcquireHandle hands out pointers
	// into, sized to the scheme's participant count. An entry is
	// re-initialised in place each time the slot registry reuses the slot.
	handles []ThreadHandle[T]
	// reg is the thread-slot registry over the manager's worker slots:
	// AcquireHandle/ReleaseHandle bind goroutines to dense tids at runtime.
	reg *SlotRegistry
}

// retireBuf is one thread's deferred-retire buffer, padded so neighbouring
// single-writer buffers do not share cache lines. The block pool is refilled
// with the spare blocks the scheme hands back from RetireBlock, so at steady
// state batches circulate existing blocks instead of allocating.
type retireBuf[T any] struct {
	bag  *blockbag.Bag[T]
	pool *blockbag.BlockPool[T]
	// pending counts the parked records: single-writer (the owning tid, or
	// the closer after the workers are joined), racy-safe for Stats readers.
	pending Counter
	_       [PadBytes]byte
}

// ManagerOption configures a RecordManager at construction time.
type ManagerOption func(*managerConfig)

type managerConfig struct {
	threads int
	batch   int
}

// WithRetireBatching enables per-thread deferred retirement for the given
// number of worker threads: Retire parks records in a thread-local buffer
// and hands them to the reclaimer batch-at-a-time once the buffer holds
// batch records. Batches of blockbag.BlockSize (or multiples) transfer as
// whole detached blocks, O(1) per batch (Reclaimer.RetireBlock); other sizes
// fall back to one Retire call per record, still amortising the per-call
// overhead over the batch.
//
// Deferring retirement is always safe (a retired record is already
// unreachable; delaying the hand-off only delays its reuse) but parks up to
// batch records per thread indefinitely if the thread stops operating;
// ThreadHandle.FlushRetired forces the hand-off (ReleaseHandle and Close do
// it for every slot). FlushRetired pins the thread around the hand-off when
// it is quiescent, so it is safe from any same-thread context; the epoch
// schemes reject a raw unpinned Retire (see Reclaimer.PinRetire for the
// contract and the hazard).
func WithRetireBatching(threads, batch int) ManagerOption {
	return func(c *managerConfig) {
		c.threads = threads
		c.batch = batch
	}
}

// NewRecordManager assembles a Record Manager from its three components.
// pool may be nil, in which case Allocate goes straight to the allocator and
// freed records are discarded (the configuration of the paper's Experiment 1,
// where reclamation work is performed but records are not reused).
func NewRecordManager[T any](alloc Allocator[T], pool Pool[T], rec Reclaimer[T], opts ...ManagerOption) *RecordManager[T] {
	if alloc == nil {
		panic("core: NewRecordManager requires an Allocator")
	}
	if rec == nil {
		panic("core: NewRecordManager requires a Reclaimer")
	}
	var cfg managerConfig
	for _, o := range opts {
		o(&cfg)
	}
	props := rec.Props()
	m := &RecordManager[T]{
		alloc:         alloc,
		pool:          pool,
		reclaimer:     rec,
		perRecord:     props.PerRecordProtection,
		crashRecovery: props.CrashRecovery,
	}
	if props.ModPerOperation {
		// Only the per-operation (epoch) schemes need the quiescent-retire
		// pin; for HP and the leaking baseline a pin would be a per-retire
		// tax with nothing to protect (and HP's IsQuiescent is O(slots)).
		m.pinner = rec
	}
	if cfg.batch > 0 {
		if cfg.threads <= 0 {
			panic("core: WithRetireBatching requires threads >= 1")
		}
		m.batch = cfg.batch
		m.bufs = make([]retireBuf[T], cfg.threads)
		for i := range m.bufs {
			m.bufs[i].pool = blockbag.NewBlockPool[T](0)
			m.bufs[i].bag = blockbag.New[T](m.bufs[i].pool)
		}
	}
	// Build the per-slot handle table for every participant the scheme was
	// constructed for, so AcquireHandle returns a pointer into this table
	// rather than an allocation and Close can flush every worker slot.
	occ := rec.Occupancy()
	n := max(cfg.threads, occ.Threads())
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
// deterministically: every thread's deferred-retire buffer is flushed and
// the scheme's remaining limbo is force-freed when it supports quiescent
// draining (LimboDrainer) — after which Retired == Freed for every
// reclaiming scheme. Contract: every worker has quiesced (EnterQstate) and
// performs no further operations; the caller has joined the worker
// goroutines (that join is the happens-before edge under which Close may
// touch their single-owner buffers). Close is idempotent and managers that
// never enabled batching may skip it.
func (m *RecordManager[T]) Close() {
	for tid := range m.bufs {
		m.handles[tid].FlushRetired()
	}
	if d, ok := m.reclaimer.(LimboDrainer); ok {
		d.DrainLimbo(0)
	}
}

// RetireBatchSize returns the configured deferred-retire batch size (0 when
// batching is disabled).
func (m *RecordManager[T]) RetireBatchSize() int { return m.batch }

// NeedsPerRecordProtection reports whether the reclaimer requires Protect to
// be called (and validated) for every record accessed. Data structures read
// this once and skip the protection path entirely for epoch-based schemes,
// mirroring the paper's compile-time elimination of no-op protect calls.
func (m *RecordManager[T]) NeedsPerRecordProtection() bool { return m.perRecord }

// SupportsCrashRecovery reports whether the reclaimer neutralizes stalled
// threads, in which case operations must be wrapped in recovery code.
func (m *RecordManager[T]) SupportsCrashRecovery() bool { return m.crashRecovery }

// Stats aggregates the statistics of all three components. RetirePending is
// read from the single-writer deferred-retire buffers and is exact only when
// the worker threads are quiescent (which is when the harnesses snapshot).
func (m *RecordManager[T]) Stats() ManagerStats {
	s := ManagerStats{
		Reclaimer: m.reclaimer.Stats(),
		Alloc:     m.alloc.Stats(),
	}
	if m.pool != nil {
		s.Pool = m.pool.Stats()
	}
	for i := range m.bufs {
		s.RetirePending += m.bufs[i].pending.Load()
	}
	s.Unreclaimed = s.Reclaimer.Limbo + s.RetirePending
	return s
}

// ManagerStats bundles the statistics of the three Record Manager
// components.
type ManagerStats struct {
	Reclaimer Stats
	Alloc     AllocStats
	Pool      PoolStats
	// RetirePending is the number of records parked in deferred-retire
	// buffers (0 unless retire batching is enabled).
	RetirePending int64
	// Unreclaimed is the true number of retired-but-not-freed records:
	// Reclaimer.Limbo + RetirePending. Reclaimer.Limbo alone understates the
	// footprint whenever batching parks records outside the scheme, so
	// memory reporting uses this field.
	Unreclaimed int64
}

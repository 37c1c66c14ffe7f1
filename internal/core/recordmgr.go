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
	// async is the asynchronous reclamation pipeline (nil when reclamation
	// is synchronous). With async set, batch hand-offs become lock-free
	// queue pushes instead of scheme retires.
	async *AsyncReclaimer[T]
	// handles is the per-slot handle table AcquireHandle hands out pointers
	// into, sized to the scheme's participant count. An entry is
	// re-initialised in place each time the slot registry reuses the slot.
	handles []ThreadHandle[T]
	// reg is the thread-slot registry over the manager's worker slots:
	// AcquireHandle/ReleaseHandle bind goroutines to dense tids at runtime.
	reg *SlotRegistry
	// ctrl is the adaptive controller (nil unless WithController): the
	// self-tuning loop over effective shards, retire batches and active
	// reclaimers. Close stops it before anything else so no lever moves
	// mid-shutdown.
	ctrl *Controller
	// sparesRecovered counts the spare exchange blocks Close returned to the
	// workers' retire-buffer pools (instrumentation for the leak tests).
	sparesRecovered int
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
	// limit is the thread's current flush threshold. Statically it simply
	// holds the configured batch size; under an adaptive controller the
	// controller is the cell's single writer (ownership transfers from the
	// constructor across the controller goroutine's start) and the owning
	// thread only ever Loads it — so the adaptive batch lever adds no
	// read-modify-write, and no new atomic, to the retire hot path.
	limit Counter
	_     [PadBytes]byte
}

// ManagerOption configures a RecordManager at construction time.
type ManagerOption func(*managerConfig)

type managerConfig struct {
	threads    int
	batch      int
	reclaimers int
	ctrl       *ControllerConfig
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

// WithAsyncReclaim moves reclamation off the workers' critical path:
// reclaimers dedicated goroutines register as extra epoch participants (tids
// threads..threads+reclaimers-1) and drain hand-off queues of retired blocks
// behind the workers, performing the grace-period wait and the free there. A
// worker's Retire becomes an O(1) buffer append plus, once per batch, an O(1)
// lock-free push of the detached blocks — the worker never touches the
// scheme's retire path at all.
//
// Requires WithRetireBatching (the hand-off granularity is the batch), and a
// reclaimer — with its allocator, pool and free sink — constructed for
// threads+reclaimers dense thread ids. The recordmgr package's Build does
// this plumbing from Config.Reclaimers. Callers must Close the manager when
// done: the shutdown ordering is workers quiesce → buffers flush →
// reclaimers drain → limbo is force-freed.
func WithAsyncReclaim(reclaimers int) ManagerOption {
	return func(c *managerConfig) {
		c.reclaimers = reclaimers
	}
}

// WithController attaches and starts an adaptive Controller: a feedback loop
// that retunes the effective shard count from live slot occupancy, the
// per-thread retire-batch threshold from the retire rate and Unreclaimed
// backlog (AIMD between cfg's floor and ceiling), and the active async
// reclaimer count from the hand-off backlog — each lever degrading to the
// static configuration when its subsystem is absent (no batching → no batch
// lever, no async pipeline → no reclaimer lever, one shard → no shard
// lever). The controller runs on its own goroutine at cfg.Interval;
// RecordManager.Close stops it before flushing, so the shutdown ordering —
// and the Retired == Freed post-Close invariant — are untouched. See
// recordmgr.Config.Adaptive for the configuration-layer entry point.
func WithController(cfg ControllerConfig) ManagerOption {
	return func(c *managerConfig) {
		c.ctrl = &cfg
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
			m.bufs[i].limit.Store(int64(cfg.batch))
		}
	}
	if cfg.reclaimers > 0 {
		if cfg.batch <= 0 {
			panic("core: WithAsyncReclaim requires WithRetireBatching (the hand-off granularity is the retire batch)")
		}
		m.async = NewAsyncReclaimer(rec, cfg.threads, cfg.reclaimers)
	}
	// Build the per-slot handle table for every participant the scheme was
	// constructed for, so AcquireHandle returns a pointer into this table
	// rather than an allocation and Close can flush every worker slot.
	smap := rec.ShardMap()
	n := max(cfg.threads, smap.Threads())
	m.handles = make([]ThreadHandle[T], n)
	for i := range m.handles {
		m.handles[i] = m.newHandle(i)
	}
	// The slot registry covers the worker slots only: the async reclaimer
	// tids at the top of the participant range are permanent infrastructure,
	// never acquirable. Attaching the registry to the scheme's shard map is
	// what lets the schemes' scan paths consult occupancy.
	workers := n - cfg.reclaimers
	if workers < 1 {
		workers = 1
	}
	m.reg = NewSlotRegistry(workers, smap)
	smap.AttachRegistry(m.reg)
	if cfg.ctrl != nil {
		var scaler ReclaimerScaler
		if m.async != nil {
			scaler = m.async
		}
		var setBatch func(int)
		if m.batch > 0 {
			setBatch = func(b int) {
				for i := range m.bufs {
					m.bufs[i].limit.Store(int64(b))
				}
			}
		}
		m.ctrl = NewController(*cfg.ctrl, m.reg, scaler, m.batch, setBatch, func() ControllerSignal {
			s := m.Stats()
			// The rate signal is WORKER inflow, not scheme-level Retired:
			// with batching and async hand-off, records reach the scheme's
			// Retire only when a reclaimer drains them, so scheme-Retired
			// stalls exactly when the pipeline is busiest (and catches up in
			// the lulls — an inverted signal). Each record sits in exactly
			// one of the three terms, so the sum is monotone.
			return ControllerSignal{
				Retired:        s.Reclaimer.Retired + s.RetirePending + s.HandoffPending,
				Unreclaimed:    s.Unreclaimed,
				HandoffPending: s.HandoffPending,
			}
		})
		m.ctrl.Start()
	}
	return m
}

// Controller returns the manager's adaptive controller (nil unless
// constructed with WithController).
func (m *RecordManager[T]) Controller() *Controller { return m.ctrl }

// SlotRegistry returns the manager's dynamic thread-slot registry
// (instrumentation; applications go through AcquireHandle/ReleaseHandle).
func (m *RecordManager[T]) SlotRegistry() *SlotRegistry { return m.reg }

// WorkerSlots returns the number of acquirable worker slots (the slot
// registry's capacity): the participant count minus the async reclaimer
// tids. Data structures size their per-slot tables from this.
func (m *RecordManager[T]) WorkerSlots() int { return m.reg.Capacity() }

// Participants returns the total number of dense thread ids the manager's
// components were constructed for (worker slots plus async reclaimer tids).
func (m *RecordManager[T]) Participants() int { return len(m.handles) }

// Allocator returns the underlying allocator.
func (m *RecordManager[T]) Allocator() Allocator[T] { return m.alloc }

// Pool returns the underlying pool (nil when records are not reused).
func (m *RecordManager[T]) Pool() Pool[T] { return m.pool }

// Reclaimer returns the underlying reclaimer.
func (m *RecordManager[T]) Reclaimer() Reclaimer[T] { return m.reclaimer }

// AsyncReclaimers returns the number of dedicated reclaimer goroutines (0
// when reclamation is synchronous).
func (m *RecordManager[T]) AsyncReclaimers() int {
	if m.async == nil {
		return 0
	}
	return m.async.Reclaimers()
}

// Close shuts the Record Manager's reclamation pipeline down
// deterministically: every thread's deferred-retire buffer is flushed, the
// asynchronous reclaimers (if any) drain their hand-off queues and stop, and
// the scheme's remaining limbo is force-freed when it supports quiescent
// draining (LimboDrainer) — after which Retired == Freed for every
// reclaiming scheme. Contract: every worker has quiesced (EnterQstate) and
// performs no further operations; the caller has joined the worker
// goroutines (that join is the happens-before edge under which Close may
// touch their single-owner buffers). Close is idempotent and managers that
// never enabled batching or async reclamation may skip it.
func (m *RecordManager[T]) Close() {
	if m.ctrl != nil {
		// Stop the adaptive controller first: after Stop no lever moves, so
		// the flush/drain sequence below runs against frozen knobs.
		m.ctrl.Stop()
	}
	for tid := range m.bufs {
		m.handles[tid].FlushRetired()
	}
	if m.async != nil {
		m.async.Close()
		// Reclaim the reclaimers' spare exchange blocks into the workers'
		// retire-buffer block pools (round-robin; pool bounds drop overflow),
		// instead of leaking them to the garbage collector at shutdown.
		if len(m.bufs) > 0 {
			i := 0
			m.async.DrainSpares(func(blk *blockbag.Block[T]) {
				m.bufs[i%len(m.bufs)].pool.Put(blk)
				i++
			})
			m.sparesRecovered += i
		}
	}
	if d, ok := m.reclaimer.(LimboDrainer); ok {
		d.DrainLimbo(0)
	}
}

// RetireBatchSize returns the configured deferred-retire batch size (0 when
// batching is disabled).
func (m *RecordManager[T]) RetireBatchSize() int { return m.batch }

// SparesRecovered returns the number of spare exchange blocks Close
// returned from the async pipeline to the workers' retire-buffer block
// pools (0 before Close or without async reclamation).
func (m *RecordManager[T]) SparesRecovered() int { return m.sparesRecovered }

// AsyncSpareBlocks returns the number of spare blocks still parked on the
// async pipeline's return stacks (0 without async reclamation; 0 after
// Close, which drains them — the leak tests assert this).
func (m *RecordManager[T]) AsyncSpareBlocks() int64 {
	if m.async == nil {
		return 0
	}
	return m.async.SpareBlocks()
}

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
	if m.async != nil {
		s.HandoffPending = m.async.HandoffPending()
	}
	s.Unreclaimed = s.Reclaimer.Limbo + s.RetirePending + s.HandoffPending
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
	// HandoffPending is the number of records parked in asynchronous
	// hand-off queues (0 unless async reclamation is enabled). Exact when
	// the pipeline is idle or closed; a chain a reclaimer is mid-drain is
	// transiently counted neither here nor in the scheme's limbo.
	HandoffPending int64
	// Unreclaimed is the true number of retired-but-not-freed records:
	// Reclaimer.Limbo + RetirePending + HandoffPending. Reclaimer.Limbo
	// alone understates the footprint whenever batching or async hand-off
	// parks records outside the scheme, so memory reporting uses this field.
	Unreclaimed int64
}

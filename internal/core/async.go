package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockbag"
)

// This file implements asynchronous reclamation: dedicated reclaimer
// goroutines that drain per-shard hand-off queues of retired blocks behind
// the workers, so the grace-period bookkeeping and the free hand-off happen
// off the workers' critical path. A worker's Retire becomes an O(1) append to
// its deferred-retire buffer plus, once per batch, an O(1) lock-free push of
// the detached blocks onto a hand-off queue.
//
// The reclaimer goroutines are first-class epoch participants: an
// AsyncReclaimer for w workers and r reclaimers requires the underlying
// scheme (and the allocator/pool behind it) to be constructed for w+r dense
// thread ids, and reclaimer i operates exclusively under tid w+i. Each drain
// cycle is a complete LeaveQstate / retire / EnterQstate operation on that
// tid, which is what makes handing another thread's retired records to an
// epoch scheme sound: the reclaimer's own active announcement pins the epoch
// exactly as a worker's would (see Reclaimer.PinRetire for why an unpinned
// retire is not), and the records land in the reclaimer tid's own limbo
// state, so no single-owner invariant is crossed. Idle reclaimers keep cycling
// pin/unpin — with backoff — while the scheme still holds limbo, because
// per-thread schemes (QSBR, DEBRA, DEBRA+) only rotate a tid's bags from that
// tid's own operation boundaries.
//
// Lifecycle: Close stops the goroutines (each performs a final drain of its
// queue before exiting), synchronously retires anything that raced into the
// queues afterwards, and leaves force-freeing the remaining limbo to the
// caller (RecordManager.Close follows with LimboDrainer.DrainLimbo). The
// shutdown ordering contract is: workers quiesce, buffers are flushed,
// reclaimers drain, then Close.

// DefaultAsyncReclaimers is the reclaimer-goroutine count selected by
// configuration layers when asynchronous reclamation is requested without an
// explicit count.
const DefaultAsyncReclaimers = 1

// spareCap bounds the spare-block return stack per hand-off queue; blocks
// beyond it are dropped to the garbage collector, exactly like a full
// per-thread BlockPool drops its overflow.
const spareCap = 16

// handoffQueue is one hand-off shard: a lock-free stack of detached blocks
// (full or partial) pushed by workers and drained by the shard's dedicated
// reclaimer goroutine, plus a capacity-1 wake token so an idle reclaimer
// blocks instead of polling, plus the return path — a bounded stack of
// emptied spare blocks the reclaimer hands back so the workers' retire
// buffers keep circulating existing blocks instead of allocating (the
// blockbag design's zero-allocation property, preserved across the
// asynchronous hand-off). rtid and h are the dedicated reclaimer's participant
// tid and its scheme handle, resolved once at construction.
type handoffQueue[T any] struct {
	stack  blockbag.SharedStack[T]
	spares blockbag.SharedStack[T]
	wake   chan struct{}
	rtid   int
	h      ReclaimerHandle[T]
	_      [PadBytes]byte
}

// AsyncReclaimer drains retired records behind a set of worker threads.
// Construct it through RecordManager's WithAsyncReclaim option (or directly
// with NewAsyncReclaimer for custom stacks); Enqueue is the worker-side
// hand-off, Close the deterministic shutdown.
type AsyncReclaimer[T any] struct {
	rec    Reclaimer[T]
	queues []handoffQueue[T]

	// active is the number of queues currently in the steady rotation:
	// Enqueue routes into queues [0, active) and goroutines with index >=
	// active park (no idle epoch cycling) until reactivated. Residue left
	// in a deactivated queue is drained by its parked goroutine on wake and
	// stolen by the active ones, so no chain is ever stranded by a scaling
	// decision. Written by SetActiveReclaimers (the adaptive Controller's
	// lever c), loaded on the worker-side hand-off — a hand-off already
	// pays a lock-free push, so one extra atomic load is noise there.
	active atomic.Int32

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// counts holds one padded single-writer counter pair per participant:
	// workers bump their enqueued cell from Enqueue, each reclaimer bumps its
	// drained cell from its own drain loop, and the pending hand-off backlog
	// is derived as sum(enqueued) - sum(drained) — so the worker-side
	// hand-off performs no atomic read-modify-write at all.
	counts []asyncCounters
}

// asyncCounters is one participant's hand-off statistics, padded so
// neighbouring single-writer cells do not share cache lines. stolen counts
// the records this reclaimer drained out of *other* queues (work stealing);
// those records are also counted in drained, so the pending derivation is
// unchanged.
type asyncCounters struct {
	enqueued Counter
	drained  Counter
	stolen   Counter
	_        [PadBytes]byte
}

// NewAsyncReclaimer spawns reclaimers dedicated goroutines draining retired
// blocks into rec under tids workers..workers+reclaimers-1. rec (and every
// per-thread component behind its free sink) must have been constructed for
// at least workers+reclaimers dense thread ids, which is verified at
// construction.
func NewAsyncReclaimer[T any](rec Reclaimer[T], workers, reclaimers int) *AsyncReclaimer[T] {
	if rec == nil {
		panic("core: NewAsyncReclaimer requires a Reclaimer")
	}
	if workers <= 0 || reclaimers <= 0 {
		panic("core: NewAsyncReclaimer requires workers >= 1 and reclaimers >= 1")
	}
	if n := rec.ShardMap().Threads(); n < workers+reclaimers {
		panic(fmt.Sprintf("core: async reclamation needs %d participants (%d workers + %d reclaimers) but the reclaimer was built for %d threads",
			workers+reclaimers, workers, reclaimers, n))
	}
	a := &AsyncReclaimer[T]{
		rec:    rec,
		queues: make([]handoffQueue[T], reclaimers),
		counts: make([]asyncCounters, workers+reclaimers),
		stop:   make(chan struct{}),
	}
	for i := range a.queues {
		q := &a.queues[i]
		q.wake = make(chan struct{}, 1)
		q.rtid = workers + i
		q.h = rec.Handle(q.rtid)
	}
	a.active.Store(int32(reclaimers))
	a.wg.Add(reclaimers)
	for i := 0; i < reclaimers; i++ {
		go a.run(i)
	}
	return a
}

// Reclaimers returns the number of reclaimer goroutines (the constructed
// pool size; ActiveReclaimers returns how many currently drain).
func (a *AsyncReclaimer[T]) Reclaimers() int { return len(a.queues) }

// ActiveReclaimers returns the number of reclaimer goroutines currently in
// the steady drain rotation.
func (a *AsyncReclaimer[T]) ActiveReclaimers() int { return int(a.active.Load()) }

// SetActiveReclaimers sets how many of the constructed reclaimer goroutines
// actively drain, clamped to [1, Reclaimers], and returns the applied
// value. Deactivated goroutines do not exit — they park on their wake
// channel (skipping the idle epoch-cycling that is the cost being saved)
// and still drain their own queue when woken, so a chain that raced into a
// deactivated queue is never stranded; active reclaimers additionally steal
// deactivated (and lagging) queues' backlogs. Safe to call at any time,
// including concurrently with Enqueue; the adaptive Controller is the
// expected caller.
func (a *AsyncReclaimer[T]) SetActiveReclaimers(n int) int {
	if n < 1 {
		n = 1
	}
	if n > len(a.queues) {
		n = len(a.queues)
	}
	a.active.Store(int32(n))
	// Nudge every goroutine: newly deactivated ones re-check their index
	// and park, reactivated ones resume the drain loop, and active ones get
	// a chance to steal residue out of the queues that just lost their
	// dedicated drainer.
	for i := range a.queues {
		select {
		case a.queues[i].wake <- struct{}{}:
		default:
		}
	}
	return n
}

// activeQueues returns the current Enqueue routing width, defensively
// clamped so a torn or stale load can never index out of range.
func (a *AsyncReclaimer[T]) activeQueues() int {
	n := int(a.active.Load())
	if n < 1 || n > len(a.queues) {
		n = len(a.queues)
	}
	return n
}

// HandoffPending returns the number of records currently parked in hand-off
// queues (exact only when the pipeline is idle or closed, like the other
// snapshots): the enqueued records minus the drained ones. A chain mid-drain
// is counted as drained from the start of its drain cycle, so — exactly as
// before — it appears in neither this count nor the scheme's limbo for the
// duration of one cycle rather than in both.
func (a *AsyncReclaimer[T]) HandoffPending() int64 {
	n := a.Enqueued() - a.Drained()
	if n < 0 {
		// Counter snapshots are racy-but-coherent; a drain publishing before
		// the matching enqueue load lands reads as a transient negative.
		return 0
	}
	return n
}

// Enqueued returns the cumulative number of records handed off by workers.
func (a *AsyncReclaimer[T]) Enqueued() int64 {
	var n int64
	for i := range a.counts {
		n += a.counts[i].enqueued.Load()
	}
	return n
}

// Drained returns the cumulative number of records reclaimer goroutines have
// handed to the scheme (counted at the start of each drain cycle).
func (a *AsyncReclaimer[T]) Drained() int64 {
	var n int64
	for i := range a.counts {
		n += a.counts[i].drained.Load()
	}
	return n
}

// Enqueue hands a detached chain of retired blocks (full or partial) from
// worker tid to the reclamation pipeline. O(1) per block; lock-free; never
// touches the scheme, so it is safe from any context, quiescent included —
// this is what makes the worker-side retire hand-off contract-free.
func (a *AsyncReclaimer[T]) Enqueue(tid int, chain *blockbag.Block[T]) {
	if chain == nil {
		return
	}
	if a.closed.Load() {
		panic("core: AsyncReclaimer.Enqueue after Close (flush buffers before closing)")
	}
	if tid < 0 || tid >= len(a.counts) {
		// An unknown tid would have to drop its enqueued count (each cell is
		// single-writer), permanently skewing HandoffPending; the contract is
		// that Enqueue is called with a participant's dense id.
		panic(fmt.Sprintf("core: AsyncReclaimer.Enqueue with tid %d outside the %d participants", tid, len(a.counts)))
	}
	n := int64(blockbag.ChainLen(chain))
	q := &a.queues[tid%a.activeQueues()]
	a.counts[tid].enqueued.Add(n)
	q.stack.PushChain(chain)
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// TakeSpare returns an empty block from worker tid's hand-off shard's
// return stack, or nil when none is cached. Workers call it after an
// Enqueue to refill their retire-buffer block pools with the spares the
// reclaimers' scheme exchange handed back.
func (a *AsyncReclaimer[T]) TakeSpare(tid int) *blockbag.Block[T] {
	return a.queues[tid%a.activeQueues()].spares.Pop()
}

// Stolen returns the cumulative number of records drained out of a queue by
// a reclaimer other than the queue's own (work-stealing instrumentation;
// these records are included in Drained).
func (a *AsyncReclaimer[T]) Stolen() int64 {
	var n int64
	for i := range a.counts {
		n += a.counts[i].stolen.Load()
	}
	return n
}

// run is the body of reclaimer goroutine i, operating under its dedicated
// participant tid.
func (a *AsyncReclaimer[T]) run(i int) {
	defer a.wg.Done()
	q := &a.queues[i]
	// Idle backoff: when there is no queued work but the scheme still holds
	// limbo, keep performing pin/unpin cycles so grace periods advance and
	// this tid's bags rotate; back off exponentially while no progress is
	// observable (for example a leaking scheme, or a worker pinned mid-op).
	// rec.Stats() aggregates every participant's counters — cache lines the
	// measured workers are writing — so it is refreshed only every
	// statsRefreshEvery idle cycles while limbo is known positive; the
	// decision to BLOCK is always taken on a fresh read, so a stale zero can
	// never strand records.
	const minIdle, maxIdle = 20 * time.Microsecond, 2 * time.Millisecond
	const statsRefreshEvery = 16
	idle := minIdle
	limbo, staleFor := int64(0), 0
	// pool catches the spare blocks the scheme's RetireBlock exchange hands
	// back; drainChain returns them to the workers through q.spares.
	pool := blockbag.NewBlockPool[T](spareCap)
	// One reusable timer for the idle backoff (time.After would allocate a
	// timer per iteration, down to one per 20µs at minIdle).
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		if chain := q.stack.PopAll(); chain != nil {
			a.drainChain(q, chain, pool)
			idle = minIdle
			staleFor = 0 // our own retires grew the limbo; force a re-read
			continue
		}
		select {
		case <-a.stop:
			// Final deterministic drain: nothing new arrives for this queue
			// once Close has been observed here and workers have flushed.
			if chain := q.stack.PopAll(); chain != nil {
				a.drainChain(q, chain, pool)
			}
			// Park the remaining cached spares on the queue's return stack
			// (bounded) so Close can hand them back to the workers' retire
			// buffer pools instead of dropping them to the garbage collector.
			a.returnSpares(q, pool)
			return
		default:
		}
		if i >= int(a.active.Load()) {
			// Deactivated by the controller. The queue was just observed
			// empty (the PopAll above), new hand-offs route elsewhere, and a
			// racing Enqueue that still chose this queue re-arms the wake
			// token — so parking here, with no idle epoch cycling (that CPU
			// burn is exactly what scaling down saves), strands nothing.
			select {
			case <-q.wake:
				staleFor = 0
			case <-a.stop:
			}
			continue
		}
		// Own queue is empty: steal a lagging or deactivated queue's backlog
		// before falling into the idle path.
		if a.steal(q, pool) {
			idle = minIdle
			staleFor = 0
			continue
		}
		if staleFor <= 0 || limbo <= 0 {
			prev := limbo
			limbo = a.rec.Stats().Limbo
			staleFor = statsRefreshEvery
			if limbo != prev {
				idle = minIdle
			} else if idle *= 2; idle > maxIdle {
				idle = maxIdle
			}
		}
		staleFor--
		if limbo > 0 {
			a.cycle(q, nil, nil)
			timer.Reset(idle)
			select {
			case <-q.wake:
				timer.Stop()
				staleFor = 0
			case <-a.stop:
				timer.Stop()
			case <-timer.C:
			}
			continue
		}
		// limbo == 0 from a fresh read: nothing to push through; sleep until
		// a hand-off (or shutdown) arrives.
		select {
		case <-q.wake:
		case <-a.stop:
		}
		staleFor = 0
	}
}

// steal scans the other hand-off queues and drains the first backlog it
// finds under this reclaimer's own tid — sound for the same reason the
// ordinary drain is: the records land in the thief's pinned operation and
// the thief tid's limbo, crossing no single-owner invariant (SharedStack
// detach is lock-free, so thief and owner never block each other; at worst
// the owner wakes to an empty queue and re-parks). This is what keeps one
// lagging reclaimer — or a deactivated queue's residue — from backing up
// the whole pipeline. Spares from stolen chains refill the thief's own
// return stack.
func (a *AsyncReclaimer[T]) steal(own *handoffQueue[T], pool *blockbag.BlockPool[T]) bool {
	if len(a.queues) == 1 {
		return false
	}
	for j := range a.queues {
		q := &a.queues[j]
		if q == own {
			continue
		}
		if chain := q.stack.PopAll(); chain != nil {
			a.counts[own.rtid].stolen.Add(int64(blockbag.ChainLen(chain)))
			a.drainChain(own, chain, pool)
			return true
		}
	}
	return false
}

// drainChain retires every record of a detached chain under q's reclaimer
// tid, one pinned operation per chain, and hands the spare blocks the scheme
// exchange returned back to the workers via q's bounded return stack. The
// drained counter is bumped up front, before the records land in the
// scheme's limbo counters: a chain mid-drain is therefore counted in
// neither bucket for the duration of one cycle (a transient undercount of
// Unreclaimed bounded by the in-flight chains) rather than in both — and
// exactly once whenever the pipeline is idle or closed, which is when the
// harnesses snapshot.
func (a *AsyncReclaimer[T]) drainChain(q *handoffQueue[T], chain *blockbag.Block[T], pool *blockbag.BlockPool[T]) {
	n := int64(blockbag.ChainLen(chain))
	a.counts[q.rtid].drained.Add(n)
	a.cycle(q, chain, pool)
	if pool != nil {
		for q.spares.Blocks() < spareCap {
			blk := pool.TryGet()
			if blk == nil {
				break
			}
			q.spares.Push(blk)
		}
	}
}

// cycle performs one full operation boundary on q's reclaimer tid —
// LeaveQstate, an optional chain retire, EnterQstate — absorbing a
// neutralization delivery (DEBRA+ may signal a reclaimer that lags the epoch;
// the delivery marks the thread quiescent before unwinding, and a reclaimer
// holds no references and computes nothing from shared records, so there is
// nothing to recover).
func (a *AsyncReclaimer[T]) cycle(q *handoffQueue[T], chain *blockbag.Block[T], pool *blockbag.BlockPool[T]) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(interface{ NeutralizationSignal() }); ok && q.h.IsQuiescent() {
				return
			}
			panic(v)
		}
	}()
	q.h.LeaveQstate()
	if chain != nil {
		RetireChain(a.rec, q.h, q.rtid, chain, pool)
	}
	q.h.EnterQstate()
}

// Close shuts the pipeline down deterministically: it stops the reclaimer
// goroutines (each drains its queue once more before exiting), then
// synchronously retires anything still queued. It does not force-free the
// scheme's limbo — callers that need Retired == Freed follow up with
// LimboDrainer.DrainLimbo once everything is quiescent, which is exactly what
// RecordManager.Close does. Contract: all workers have quiesced and flushed
// their deferred-retire buffers before Close; Close is idempotent.
func (a *AsyncReclaimer[T]) Close() {
	if !a.closed.CompareAndSwap(false, true) {
		return
	}
	close(a.stop)
	a.wg.Wait()
	pool := blockbag.NewBlockPool[T](spareCap)
	for i := range a.queues {
		// The exchange spares from this final drain go onto the queues'
		// return stacks like the steady-state ones; RecordManager.Close
		// collects them back into the workers' retire-buffer block pools via
		// DrainSpares (they used to be dropped to the garbage collector).
		if chain := a.queues[i].stack.PopAll(); chain != nil {
			a.drainChain(&a.queues[i], chain, pool)
		}
		a.returnSpares(&a.queues[i], pool)
	}
}

// returnSpares moves every block cached in pool onto q's bounded spare
// return stack; blocks beyond the bound stay in the (discarded) pool.
func (a *AsyncReclaimer[T]) returnSpares(q *handoffQueue[T], pool *blockbag.BlockPool[T]) {
	if pool == nil {
		return
	}
	for q.spares.Blocks() < spareCap {
		blk := pool.TryGet()
		if blk == nil {
			return
		}
		q.spares.Push(blk)
	}
}

// SpareBlocks returns the number of empty exchange blocks currently parked
// on the queues' spare-return stacks (instrumentation for the leak tests).
func (a *AsyncReclaimer[T]) SpareBlocks() int64 {
	var n int64
	for i := range a.queues {
		n += a.queues[i].spares.Blocks()
	}
	return n
}

// DrainSpares pops every parked spare block and hands it to fn.
// RecordManager.Close uses it to return the reclaimers' emptied exchange
// blocks to the workers' retire-buffer block pools at shutdown, closing the
// last gap in the blockbag design's block-circulation property.
func (a *AsyncReclaimer[T]) DrainSpares(fn func(*blockbag.Block[T])) {
	for i := range a.queues {
		for {
			blk := a.queues[i].spares.Pop()
			if blk == nil {
				break
			}
			fn(blk)
		}
	}
}

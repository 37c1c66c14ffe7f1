// Package ebr implements classical epoch based reclamation as described by
// Fraser and summarised in Section 3 of the paper ("Epochs"). It is the
// baseline that DEBRA improves upon and is included for the ablation
// benchmarks:
//
//   - a single global epoch counter;
//   - an announcement per process, re-read and re-published at the start of
//     every operation;
//   - every operation scans announcements (O(n) per operation in the classic
//     single-domain configuration, versus DEBRA's amortised O(1));
//   - SHARED limbo bags, one per recent epoch, that processes synchronise on
//     (versus DEBRA's private per-process bags);
//   - no quiescent bit: a process that is between operations (or asleep, or
//     crashed) still blocks the epoch from advancing, so classical EBR is
//     not fault tolerant and has no bound on unreclaimed garbage.
//
// The shared limbo bags are protected by a mutex; this is faithful to the
// "shared bags" cost model the paper contrasts DEBRA against (Fraser's
// original used per-CPU lists with a lock per list).
//
// # Sharded domains
//
// With WithShards the shared state is partitioned into N reclamation
// domains (core.ShardSpec): each shard owns its own limbo bags, mutex and a
// padded epoch-summary word. The per-operation announcement scan covers only
// the caller's shard members; a shard whose members have all been verified
// at the current epoch publishes that fact in its summary word, and the
// global epoch advances once every shard's summary matches. When a summary
// lags (for example because the whole shard is idle and nobody is updating
// it), the advancing thread falls back to scanning that shard's members
// directly — so the fast path is shard-local, the worst case is the classic
// full scan, and safety is unchanged: the epoch never advances until every
// thread has been observed inactive or announcing the current epoch.
package ebr

import (
	"sync"
	"sync/atomic"

	"repro/internal/blockbag"
	"repro/internal/core"
)

// Option configures the reclaimer.
type Option func(*config)

type config struct {
	spec core.ShardSpec
}

// WithShards partitions the reclaimer into sharded domains.
func WithShards(spec core.ShardSpec) Option { return func(c *config) { c.spec = spec } }

// Reclaimer implements core.Reclaimer with classical EBR.
type Reclaimer[T any] struct {
	sink      core.FreeSink[T]
	blockSink core.BlockFreeSink[T]

	epoch   atomic.Int64
	smap    *core.ShardMap
	shards  []shardState[T]
	threads []thread
	// stats holds each thread's single-writer statistics counters, in a
	// separate padded array so the owner's counter stores do not dirty the
	// announcement lines every other thread's scan reads. (These used to be
	// four global atomic.Int64 cells — a LOCK-prefixed RMW on a line shared
	// by every thread, several times per operation.)
	stats   []threadStats
	handles []handle[T]
}

type thread struct {
	announce atomic.Int64
	active   atomic.Bool
	_        [core.PadBytes]byte
}

// threadStats is one thread's single-writer counters (core.Counter), padded
// so neighbouring threads' cells do not share cache lines.
type threadStats struct {
	retired       core.Counter
	freed         core.Counter
	epochAdvances core.Counter
	scans         core.Counter
	_             [core.PadBytes]byte
}

// handle is one thread slot's view (core.ReclaimerHandle): the slot's
// announcement word, stats, shard state and member list resolved once.
type handle[T any] struct {
	r       *Reclaimer[T]
	t       *thread
	st      *threadStats
	shard   *shardState[T]
	tid     int
	members []int
	self    int
}

// shardState is one reclamation domain: its verified-epoch summary, the
// epoch up to which its limbo has been reclaimed, and the shard-shared limbo
// bags (guarded by mu, as in the classic shared-bag cost model — sharding
// divides the contention by the shard count instead of removing it, which is
// exactly the knob the ablation measures).
type shardState[T any] struct {
	summary atomic.Int64 // last epoch every member was verified at

	mu    sync.Mutex
	limbo [3]*blockbag.Bag[T] // indexed by retire epoch modulo 3
	pool  *blockbag.BlockPool[T]

	_ [core.PadBytes]byte
}

// New creates a classical EBR reclaimer for n threads whose reclaimed
// records are passed to sink.
func New[T any](n int, sink core.FreeSink[T], opts ...Option) *Reclaimer[T] {
	if n <= 0 {
		panic("ebr: New requires n >= 1")
	}
	if sink == nil {
		panic("ebr: New requires a FreeSink")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	smap := core.NewShardMap(n, cfg.spec)
	r := &Reclaimer[T]{
		sink:    sink,
		smap:    smap,
		shards:  make([]shardState[T], smap.Shards()),
		threads: make([]thread, n),
		stats:   make([]threadStats, n),
	}
	if bs, ok := sink.(core.BlockFreeSink[T]); ok {
		r.blockSink = bs
	}
	r.epoch.Store(1)
	for i := range r.shards {
		s := &r.shards[i]
		s.pool = blockbag.NewBlockPool[T](blockbag.DefaultBlockPoolCap)
		for j := range s.limbo {
			s.limbo[j] = blockbag.New(s.pool)
		}
		s.summary.Store(1)
	}
	r.handles = make([]handle[T], n)
	for i := range r.handles {
		self := smap.ShardOf(i)
		r.handles[i] = handle[T]{
			r:       r,
			t:       &r.threads[i],
			st:      &r.stats[i],
			shard:   &r.shards[self],
			tid:     i,
			self:    self,
			members: smap.Members(self),
		}
	}
	return r
}

// Handle implements core.Reclaimer.
func (r *Reclaimer[T]) Handle(tid int) core.ReclaimerHandle[T] { return &r.handles[tid] }

// Name implements core.Reclaimer.
func (r *Reclaimer[T]) Name() string { return "ebr" }

// ShardMap implements core.Sharded.
func (r *Reclaimer[T]) ShardMap() *core.ShardMap { return r.smap }

// Props implements core.Reclaimer.
func (r *Reclaimer[T]) Props() core.Properties {
	return core.Properties{
		Scheme:                   "EBR",
		ModPerOperation:          true,
		ModPerRetiredRecord:      true,
		Termination:              core.ProgressLockFree,
		TraverseRetiredToRetired: true,
		FaultTolerant:            false,
		BoundedGarbage:           false,
	}
}

// passes reports whether thread i does not block an advance away from epoch
// e: it is inactive or has announced e.
func (r *Reclaimer[T]) passes(i int, e int64) bool {
	t := &r.threads[i]
	return !t.active.Load() || t.announce.Load() == e
}

// LeaveQstate implements core.ReclaimerHandle: announce the current epoch and
// scan the caller's shard; when the whole shard has been verified at the
// current epoch, publish that in the shard summary, and advance the epoch
// once every shard's summary (or, for lagging shards, a direct member scan)
// passes.
func (h *handle[T]) LeaveQstate() bool {
	r, t := h.r, h.t
	e := r.epoch.Load()
	changed := t.announce.Load() != e
	t.announce.Store(e)
	t.active.Store(true)

	// Classical EBR scans announcements on every operation; with shards the
	// scan is the caller's shard members only. When a slot registry reports
	// the caller as its shard's only live occupant, the member loop is
	// skipped outright — every other member is vacant, hence quiescent (the
	// release contract), and the race with a concurrent acquire is the same
	// quiescent-thread-wakes race the plain scan already tolerates.
	canAdvance := true
	if live := r.smap.ShardLive(h.self); live < 0 || live > 1 {
		for _, i := range h.members {
			if i == h.tid {
				continue
			}
			if !r.passes(i, e) {
				canAdvance = false
				break
			}
		}
	}
	h.st.scans.Inc()
	if canAdvance {
		s := h.shard
		if s.summary.Load() != e {
			s.summary.Store(e)
		}
		if r.allShardsAt(e) && r.epoch.CompareAndSwap(e, e+1) {
			h.st.epochAdvances.Inc()
			r.reclaimEpoch(h.tid, e+1)
		}
	}
	return changed
}

// allShardsAt reports whether every shard has been verified at epoch e,
// consulting the memoised summaries first and falling back to a direct
// member scan for lagging shards (helping their summary forward on success).
// A shard whose occupancy summary reads zero live slots has only vacant —
// hence quiescent — members and is verified in O(1), which is what keeps
// the lagging-shard slow path cheap when the registry's capacity far
// exceeds the live goroutine count.
func (r *Reclaimer[T]) allShardsAt(e int64) bool {
	for i := range r.shards {
		s := &r.shards[i]
		if s.summary.Load() == e {
			continue
		}
		if r.smap.ShardLive(i) == 0 {
			s.summary.Store(e)
			continue
		}
		for _, m := range r.smap.Members(i) {
			if !r.passes(m, e) {
				return false
			}
		}
		s.summary.Store(e)
	}
	return true
}

// reclaimEpoch frees every shard's limbo bag that is now two epochs old. It
// is called ONLY by the thread that just advanced the epoch to newEpoch, and
// that caller's own still-active announcement of newEpoch-1 is the safety
// argument: the freed index (newEpoch+1)%3 is the bag that will collect
// retires at epoch newEpoch+1, and the epoch cannot reach newEpoch+1 until
// the caller — currently announcing newEpoch-1 — passes through another
// LeaveQstate, which happens only after this drain returns. Concurrent
// retires therefore land in the other two bags. (A freer that merely
// re-loaded the epoch would lack this pin and could race a retire into the
// bag it is draining.) Sweeping ALL shards from the winner also keeps idle
// shards' garbage bounded, exactly as the single shared bag behaved.
func (r *Reclaimer[T]) reclaimEpoch(tid int, newEpoch int64) {
	idx := int((newEpoch + 1) % 3)
	for si := range r.shards {
		s := &r.shards[si]
		var rest []*T
		s.mu.Lock()
		bag := s.limbo[idx]
		chain := bag.DetachAllFullBlocks()
		for {
			rec, ok := bag.Remove()
			if !ok {
				break
			}
			rest = append(rest, rec)
		}
		s.mu.Unlock()
		n := int64(blockbag.ChainLen(chain)) + int64(len(rest))
		if n == 0 {
			continue
		}
		if r.blockSink != nil && chain != nil {
			r.blockSink.FreeBlocks(tid, chain)
		} else {
			for blk := chain; blk != nil; blk = blk.Next() {
				for i := 0; i < blk.Len(); i++ {
					r.sink.Free(tid, blk.Record(i))
				}
			}
		}
		for _, rec := range rest {
			r.sink.Free(tid, rec)
		}
		r.stats[tid].freed.Add(n)
	}
}

// EnterQstate implements core.ReclaimerHandle. Classical EBR has no quiescent
// bit, but we record inactivity so that threads which never perform another
// operation do not block the epoch forever in long-running processes; a
// thread that stalls *inside* an operation still blocks reclamation, which
// is the failure mode the paper highlights.
func (h *handle[T]) EnterQstate() { h.t.active.Store(false) }

// IsQuiescent implements core.ReclaimerHandle.
func (h *handle[T]) IsQuiescent() bool { return !h.t.active.Load() }

// Retire implements core.ReclaimerHandle: append to the caller's shard's limbo
// bag of the current epoch. The caller must be pinned (mid-operation, or
// inside a PinRetire/UnpinRetire window).
func (h *handle[T]) Retire(rec *T) {
	if rec == nil {
		panic("ebr: Retire(nil)")
	}
	if !h.t.active.Load() {
		panic("ebr: Retire from a quiescent context; pin the thread first (PinRetire or LeaveQstate)")
	}
	e := h.r.epoch.Load()
	idx := int(e % 3)
	s := h.shard
	s.mu.Lock()
	s.limbo[idx].Add(rec)
	s.mu.Unlock()
	h.st.retired.Inc()
}

// Protect implements core.ReclaimerHandle (no-op for EBR).
func (h *handle[T]) Protect(rec *T) bool { return true }

// Unprotect implements core.ReclaimerHandle (no-op).
func (h *handle[T]) Unprotect(rec *T) {}

// IsProtected implements core.ReclaimerHandle.
func (h *handle[T]) IsProtected(rec *T) bool { return true }

// RProtect implements core.ReclaimerHandle (no-op).
func (h *handle[T]) RProtect(rec *T) {}

// RUnprotectAll implements core.ReclaimerHandle (no-op).
func (h *handle[T]) RUnprotectAll() {}

// IsRProtected implements core.ReclaimerHandle.
func (h *handle[T]) IsRProtected(rec *T) bool { return false }

// Checkpoint implements core.ReclaimerHandle (no-op).
func (h *handle[T]) Checkpoint() {}

// PinRetire implements core.RetirePinner: announce the current epoch and
// mark the thread active, without the scan/advance work of LeaveQstate. The
// announcement is the retire-side pin: while it stands, the epoch can run at
// most one advance ahead of any epoch a Retire between Pin and Unpin loads,
// so retired records always land at least two advances away from the bag an
// advance winner may be draining.
func (r *Reclaimer[T]) PinRetire(tid int) {
	t := &r.threads[tid]
	t.announce.Store(r.epoch.Load())
	t.active.Store(true)
}

// UnpinRetire implements core.RetirePinner.
func (r *Reclaimer[T]) UnpinRetire(tid int) { r.threads[tid].active.Store(false) }

// requirePinned panics when thread tid retires without an active
// announcement. An unpinned (quiescent) retirer's loaded epoch can go
// arbitrarily stale between the load and the bag append — nothing stops the
// epoch advancing twice in that window, at which point the append races the
// advance winner's reclaimEpoch drain of that very bag index. Quiescent
// callers must pin first (core.RetirePinner), which is what
// core.ThreadHandle.FlushRetired does on shutdown paths.
func (r *Reclaimer[T]) requirePinned(tid int) {
	if !r.threads[tid].active.Load() {
		panic("ebr: Retire from a quiescent context; pin the thread first (PinRetire or LeaveQstate)")
	}
}

// RetireBlock implements core.BlockReclaimer: splice one detached full block
// into the caller's shard's current limbo bag — O(1) under one lock
// acquisition for the whole batch — returning a recycled empty block from
// the shard's pool in exchange when one is cached. The caller must be pinned
// like for Retire.
func (r *Reclaimer[T]) RetireBlock(tid int, blk *blockbag.Block[T]) *blockbag.Block[T] {
	if blk == nil {
		return nil
	}
	r.requirePinned(tid)
	n := int64(blk.Len())
	e := r.epoch.Load()
	idx := int(e % 3)
	s := &r.shards[r.smap.ShardOf(tid)]
	s.mu.Lock()
	s.limbo[idx].AddBlock(blk)
	spare := s.pool.TryGet()
	s.mu.Unlock()
	r.stats[tid].retired.Add(n)
	return spare
}

// DrainLimbo implements core.LimboDrainer: free every record in every
// shard's limbo bags. Only safe once every thread has quiesced for good
// (verified against the announcements; references are the caller's
// contract) — shutdown paths after workers are joined.
func (r *Reclaimer[T]) DrainLimbo(tid int) int64 {
	for i := range r.threads {
		if r.threads[i].active.Load() {
			panic("ebr: DrainLimbo while a thread is still active")
		}
	}
	var total int64
	for si := range r.shards {
		s := &r.shards[si]
		var chains []*blockbag.Block[T]
		var rest []*T
		s.mu.Lock()
		for _, bag := range s.limbo {
			if c := bag.DetachAllFullBlocks(); c != nil {
				chains = append(chains, c)
			}
			bag.Drain(func(rec *T) { rest = append(rest, rec) })
		}
		s.mu.Unlock()
		n := int64(len(rest))
		for _, chain := range chains {
			// Touching s.pool outside s.mu is fine here: the all-quiescent
			// precondition means no concurrent Retire/RetireBlock exists.
			n += core.FreeChain(r.sink, r.blockSink, s.pool, tid, chain)
		}
		for _, rec := range rest {
			r.sink.Free(tid, rec)
		}
		r.stats[tid].freed.Add(n)
		total += n
	}
	return total
}

// Epoch returns the current global epoch (instrumentation).
func (r *Reclaimer[T]) Epoch() int64 { return r.epoch.Load() }

// Stats implements core.Reclaimer.
func (r *Reclaimer[T]) Stats() core.Stats {
	var s core.Stats
	for i := range r.stats {
		st := &r.stats[i]
		s.Retired += st.retired.Load()
		s.Freed += st.freed.Load()
		s.EpochAdvances += st.epochAdvances.Load()
		s.Scans += st.scans.Load()
	}
	s.Limbo = s.Retired - s.Freed
	return s
}

var (
	_ core.Reclaimer[int]      = (*Reclaimer[int])(nil)
	_ core.BlockReclaimer[int] = (*Reclaimer[int])(nil)
	_ core.Sharded             = (*Reclaimer[int])(nil)
	_ core.RetirePinner        = (*Reclaimer[int])(nil)
	_ core.LimboDrainer        = (*Reclaimer[int])(nil)
)

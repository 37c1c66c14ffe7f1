// Package qsbr implements quiescent-state-based reclamation (McKenney and
// Slingwine), the generalisation of epoch based reclamation mentioned in
// Section 3 of the paper. Where EBR infers quiescence from operation
// boundaries, QSBR relies on the application explicitly announcing quiescent
// states; in the Record Manager interface that announcement is EnterQstate,
// so for the data structures in this module QSBR behaves like an epoch
// scheme whose bookkeeping happens at the end of operations rather than the
// beginning.
//
// The implementation mirrors DEBRA's distributed structure (per-thread limbo
// bags, no shared bags) but performs its announcement scan at each quiescent
// state, so its per-operation cost sits between classical EBR and DEBRA.
// Like both, it is not fault tolerant: a thread that stops announcing
// quiescent states while non-quiescent halts reclamation for everyone.
//
// With WithShards the quiescent-state scan becomes shard-local: a thread
// scans only its own shard's announcements, publishes the shard's verified
// grace period in a padded summary word, and the global grace period
// advances once every shard summary matches (with a direct member scan as
// the fallback for lagging or idle shards). Limbo bags were per-thread
// already, so sharding only changes the scan topology; safety is unchanged
// because the grace period still advances only after every thread has been
// verified offline or past the current period.
package qsbr

import (
	"sync/atomic"

	"repro/internal/blockbag"
	"repro/internal/core"
)

// Option configures the reclaimer.
type Option func(*config)

type config struct {
	spec core.ShardSpec
}

// WithShards partitions the announcement scan into sharded domains.
func WithShards(spec core.ShardSpec) Option { return func(c *config) { c.spec = spec } }

// Reclaimer implements core.Reclaimer with QSBR.
type Reclaimer[T any] struct {
	sink      core.FreeSink[T]
	blockSink core.BlockFreeSink[T]

	// grace is the global grace-period counter.
	grace   atomic.Int64
	smap    *core.ShardMap
	shards  []shardSummary
	shared  []announceSlot
	threads []thread[T]
	handles []handle[T]
}

// handle is one thread slot's view (core.ReclaimerHandle): private state,
// announcement word and shard scan set resolved once, so per-op calls index
// no slices.
type handle[T any] struct {
	r       *Reclaimer[T]
	t       *thread[T]
	slot    *announceSlot
	tid     int
	members []int
	self    int
}

// shardSummary is a shard's verified-grace-period word, padded onto its own
// cache lines (written by the shard's members, read by every advancer).
type shardSummary struct {
	v atomic.Int64
	_ [core.PadBytes]byte
}

type announceSlot struct {
	// v holds the last grace period this thread has passed through, with
	// the low bit set while the thread is offline (quiescent between
	// operations, not blocking grace periods).
	v atomic.Int64
	_ [core.PadBytes]byte
}

const offlineBit = 1

type thread[T any] struct {
	bags      [3]*blockbag.Bag[T]
	current   int
	blockPool *blockbag.BlockPool[T]

	// Single-writer statistics counters (core.Counter): written by the
	// owning tid (or a quiescent-shutdown drainer), read racily by Stats.
	retired core.Counter
	freed   core.Counter
	grace   core.Counter

	_ [core.PadBytes]byte
}

// New creates a QSBR reclaimer for n threads; reclaimed records go to sink.
func New[T any](n int, sink core.FreeSink[T], opts ...Option) *Reclaimer[T] {
	if n <= 0 {
		panic("qsbr: New requires n >= 1")
	}
	if sink == nil {
		panic("qsbr: New requires a FreeSink")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	smap := core.NewShardMap(n, cfg.spec)
	r := &Reclaimer[T]{
		sink:    sink,
		smap:    smap,
		shards:  make([]shardSummary, smap.Shards()),
		shared:  make([]announceSlot, n),
		threads: make([]thread[T], n),
	}
	if bs, ok := sink.(core.BlockFreeSink[T]); ok {
		r.blockSink = bs
	}
	r.grace.Store(2)
	for i := range r.shards {
		r.shards[i].v.Store(2)
	}
	for i := range r.threads {
		t := &r.threads[i]
		t.blockPool = blockbag.NewBlockPool[T](blockbag.DefaultBlockPoolCap)
		for j := range t.bags {
			t.bags[j] = blockbag.New(t.blockPool)
		}
		r.shared[i].v.Store(2 | offlineBit)
	}
	r.handles = make([]handle[T], n)
	for i := range r.handles {
		self := smap.ShardOf(i)
		r.handles[i] = handle[T]{
			r:       r,
			t:       &r.threads[i],
			slot:    &r.shared[i],
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
func (r *Reclaimer[T]) Name() string { return "qsbr" }

// Props implements core.Reclaimer.
func (r *Reclaimer[T]) Props() core.Properties {
	return core.Properties{
		Scheme:                   "QSBR",
		ModPerOperation:          true,
		ModPerRetiredRecord:      true,
		ModOther:                 "identify quiescent states manually",
		Termination:              core.ProgressWaitFree,
		TraverseRetiredToRetired: true,
		FaultTolerant:            false,
		BoundedGarbage:           false,
	}
}

// LeaveQstate implements core.ReclaimerHandle: mark the thread online for the
// current grace period.
func (h *handle[T]) LeaveQstate() bool {
	g := h.r.grace.Load()
	prev := h.slot.v.Load()
	h.slot.v.Store(g &^ offlineBit)
	return prev&^offlineBit != g
}

// EnterQstate implements core.ReclaimerHandle: announce a quiescent state, try
// to advance the grace period (scanning the caller's shard and then the shard
// summaries), and reclaim the oldest local bag when the thread observes a
// new grace period.
func (h *handle[T]) EnterQstate() {
	r, t := h.r, h.t
	g := r.grace.Load()
	// Announce that we have passed through a quiescent state in period g,
	// and mark ourselves offline so we do not hold up future periods while
	// we are between operations.
	h.slot.v.Store(g | offlineBit)

	// Verify the caller's shard: every member must be offline or have
	// announced period g. When the slot registry reports the caller as the
	// shard's only live occupant the loop is skipped — vacant slots are
	// offline by the release contract (the concurrent-acquire race is the
	// usual offline-thread-wakes race the plain scan already tolerates).
	advance := true
	if live := r.smap.ShardLive(h.self); live < 0 || live > 1 {
		for _, i := range h.members {
			if !r.passes(i, g) {
				advance = false
				break
			}
		}
	}
	if advance {
		s := &r.shards[h.self]
		if s.v.Load() != g {
			s.v.Store(g)
		}
		if r.allShardsAt(g) {
			r.grace.CompareAndSwap(g, g+2)
		}
	}
	// Reclaim locally once per observed grace period.
	if t.grace.Load() != g {
		t.grace.Store(g)
		t.current = (t.current + 1) % 3
		// A lone thread observes a new period on every operation, so an empty
		// bag must cost nothing here.
		if chain := t.bags[t.current].DetachAllFullBlocks(); chain != nil {
			t.freed.Add(core.FreeChain(r.sink, r.blockSink, t.blockPool, h.tid, chain))
		}
	}
}

// IsQuiescent implements core.ReclaimerHandle.
func (h *handle[T]) IsQuiescent() bool { return h.slot.v.Load()&offlineBit != 0 }

// Retire implements core.ReclaimerHandle. The caller must be pinned
// (mid-operation, or inside a PinRetire/UnpinRetire window).
func (h *handle[T]) Retire(rec *T) {
	if rec == nil {
		panic("qsbr: Retire(nil)")
	}
	if h.slot.v.Load()&offlineBit != 0 {
		panic("qsbr: Retire from a quiescent (offline) context; pin the thread first (PinRetire or LeaveQstate)")
	}
	h.t.bags[h.t.current].Add(rec)
	h.t.retired.Inc()
}

// Protect implements core.ReclaimerHandle (no-op for QSBR).
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

// passes reports whether thread i does not block grace period g: it is
// offline or has announced g.
func (r *Reclaimer[T]) passes(i int, g int64) bool {
	v := r.shared[i].v.Load()
	return v&offlineBit != 0 || v&^offlineBit == g
}

// allShardsAt reports whether every shard has been verified at grace period
// g, consulting the memoised summaries first and falling back to a direct
// member scan for lagging (for example idle) shards, helping their summary
// forward on success.
func (r *Reclaimer[T]) allShardsAt(g int64) bool {
	for i := range r.shards {
		s := &r.shards[i]
		if s.v.Load() == g {
			continue
		}
		if r.smap.ShardLive(i) == 0 {
			// Zero live occupants: every member is vacant, hence offline;
			// the lagging (idle) shard is verified in O(1).
			s.v.Store(g)
			continue
		}
		for _, m := range r.smap.Members(i) {
			if !r.passes(m, g) {
				return false
			}
		}
		s.v.Store(g)
	}
	return true
}

// ShardMap implements core.Sharded.
func (r *Reclaimer[T]) ShardMap() *core.ShardMap { return r.smap }

// PinRetire implements core.RetirePinner: mark the thread online at the
// current grace period, without EnterQstate's scan/advance/rotation work.
// While the pin stands, the thread blocks grace periods exactly like a
// mid-operation worker, so records it retires get the same two-period
// separation from any reclaim of its bags.
func (r *Reclaimer[T]) PinRetire(tid int) {
	r.shared[tid].v.Store(r.grace.Load() &^ offlineBit)
}

// UnpinRetire implements core.RetirePinner: mark the thread offline again,
// keeping its announced period (no rotation — the retired records wait in
// the current bag for the owner's next real quiescent cycles, or for
// DrainLimbo at shutdown).
func (r *Reclaimer[T]) UnpinRetire(tid int) {
	s := &r.shared[tid]
	s.v.Store(s.v.Load() | offlineBit)
}

// requirePinned panics when thread tid retires while offline. QSBR's limbo
// bags are single-owner, but an offline retirer's records enter a bag whose
// rotation cadence assumes every deposit was made by a thread participating
// in grace periods; the uniform epoch-scheme contract (see
// core.RetirePinner) is that quiescent callers pin first.
func (r *Reclaimer[T]) requirePinned(tid int) {
	if r.shared[tid].v.Load()&offlineBit != 0 {
		panic("qsbr: Retire from a quiescent (offline) context; pin the thread first (PinRetire or LeaveQstate)")
	}
}

// RetireBlock implements core.BlockReclaimer: splice one detached full block
// into the caller's current limbo bag in O(1) (the bag is single-owner, so
// the hand-off needs no synchronisation), returning a recycled empty block
// from the thread's pool in exchange when one is cached. The caller must be
// pinned like for Retire.
func (r *Reclaimer[T]) RetireBlock(tid int, blk *blockbag.Block[T]) *blockbag.Block[T] {
	if blk == nil {
		return nil
	}
	r.requirePinned(tid)
	t := &r.threads[tid]
	n := int64(blk.Len())
	t.bags[t.current].AddBlock(blk)
	t.retired.Add(n)
	return t.blockPool.TryGet()
}

// DrainLimbo implements core.LimboDrainer: free every record in every
// thread's limbo bags, partial head blocks included. Only safe once every
// thread is offline for good and the caller holds a happens-before edge from
// their last operation (joined goroutines); the offline check catches the
// announcement side of violations.
func (r *Reclaimer[T]) DrainLimbo(tid int) int64 {
	for i := range r.shared {
		if r.shared[i].v.Load()&offlineBit == 0 {
			panic("qsbr: DrainLimbo while a thread is still online")
		}
	}
	var total int64
	for i := range r.threads {
		t := &r.threads[i]
		var n int64
		for _, bag := range t.bags {
			n += core.FreeChain(r.sink, r.blockSink, t.blockPool, tid, bag.DetachAllFullBlocks())
			n += int64(bag.Drain(func(rec *T) { r.sink.Free(tid, rec) }))
		}
		t.freed.Add(n)
		total += n
	}
	return total
}

// Stats implements core.Reclaimer.
func (r *Reclaimer[T]) Stats() core.Stats {
	var s core.Stats
	for i := range r.threads {
		t := &r.threads[i]
		s.Retired += t.retired.Load()
		s.Freed += t.freed.Load()
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

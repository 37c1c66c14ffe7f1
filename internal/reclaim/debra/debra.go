// Package debra implements DEBRA, the distributed epoch based reclamation
// scheme of Section 4 of the paper (Figure 4 pseudocode).
//
// Differences from classical EBR that this implementation reproduces:
//
//   - Private limbo bags: each thread keeps three block bags of records it
//     retired (one per recent epoch) and rotates them locally; there is no
//     shared limbo bag to synchronise on.
//   - Incremental announcement scanning: instead of reading every thread's
//     announcement at the start of every operation, a thread checks a single
//     announcement every CHECK_THRESH operations and only attempts to
//     advance the epoch after it has observed all n announcements (and has
//     performed at least INCR_THRESH operations since its last advance
//     attempt), amortising the scan to O(1) per operation.
//   - Quiescent bit: the least significant bit of a thread's announcement
//     word records whether the thread is between operations. Quiescent
//     threads do not delay the epoch, which is DEBRA's partial fault
//     tolerance: a thread that crashes (or is descheduled) outside an
//     operation does not stop reclamation.
//   - Block transfers: when a thread observes a new epoch it rotates its
//     limbo bags and moves all full blocks of the oldest bag to the free
//     sink in O(1) (whole blocks when the sink supports it). The blocks
//     travel one way, so a sink that keeps them (pool.Pool) lends each thread
//     the block pool its emptied blocks go back to, and the limbo bags draw
//     from that one: a reclaimer with a block pool of its own allocates a
//     fresh 2 KiB block per BlockSize retired records for as long as it runs,
//     while the sink's pool overflows and drops as many.
//
// Every operation (LeaveQstate, EnterQstate, Retire) takes O(1) worst-case
// steps, matching the paper's complexity claim.
package debra

import (
	"sync/atomic"

	"repro/internal/blockbag"
	"repro/internal/core"
)

// Default pacing constants from the paper's experiments.
const (
	// DefaultCheckThresh is the number of leaveQstate calls between
	// checks of another thread's announcement (CHECK_THRESH).
	DefaultCheckThresh = 1
	// DefaultIncrThresh is the minimum number of leaveQstate calls before a
	// thread attempts to increment the epoch (INCR_THRESH, 100 in the
	// paper's experiments).
	DefaultIncrThresh = 100
)

// epochInc is the amount by which the global epoch advances: announcements
// reserve their least significant bit for the quiescent flag, so epochs are
// always even.
const epochInc = 2

// quiescentBit is the quiescent flag within an announcement word.
const quiescentBit = 1

// Option configures the reclaimer.
type Option func(*config)

type config struct {
	checkThresh int64
	incrThresh  int64
	spec        core.ShardSpec
}

// WithShards partitions the incremental announcement scan into sharded
// domains (core.ShardSpec): a thread's scan cycle covers its own shard's
// members and then the per-shard summary words instead of all n
// announcements, shortening the cycle from n checks to n/s + s and keeping
// the checked cache lines shard-local (the NUMA motivation behind
// CHECK_THRESH, taken further). Lagging shards — typically shards whose
// members are all quiescent — are verified by a direct member scan, so the
// epoch still never advances until every thread has been observed quiescent
// or at the current epoch; with one shard the behaviour is the classic
// DEBRA scan.
func WithShards(spec core.ShardSpec) Option { return func(c *config) { c.spec = spec } }

// WithCheckThresh sets how many operations pass between reads of another
// thread's announcement (the paper's CHECK_THRESH, used to avoid cross-socket
// cache misses on NUMA machines).
func WithCheckThresh(v int) Option { return func(c *config) { c.checkThresh = int64(v) } }

// WithIncrThresh sets the minimum number of operations between epoch-advance
// attempts (the paper's INCR_THRESH).
func WithIncrThresh(v int) Option { return func(c *config) { c.incrThresh = int64(v) } }

// Reclaimer implements core.Reclaimer with DEBRA.
type Reclaimer[T any] struct {
	sink core.FreeSink[T]
	cfg  config

	epoch   atomic.Int64 // always a multiple of epochInc
	smap    *core.ShardMap
	shards  []shardSummary
	shared  []announceSlot
	threads []thread[T]
	handles []handle[T]

	blockSink core.BlockFreeSink[T] // sink if it supports whole blocks, else nil
}

// handle is one thread slot's view (core.ReclaimerHandle): the slot's
// private state, announcement word and shard scan set resolved once at
// construction, so per-operation calls index no slices at all.
type handle[T any] struct {
	r       *Reclaimer[T]
	t       *thread[T]
	slot    *announceSlot
	tid     int
	members []int // the owning shard's member tids
	self    int   // the owning shard
}

// shardSummary is a shard's verified-epoch word, padded to its own cache
// lines (stored by whichever member completes the member phase of its scan,
// read by every thread's summary phase).
type shardSummary struct {
	v atomic.Int64
	_ [core.PadBytes]byte
}

// announceSlot is a thread's announcement word (epoch | quiescent bit),
// padded to its own cache lines because it is written by its owner and read
// by every other thread.
type announceSlot struct {
	v atomic.Int64
	_ [core.PadBytes]byte
}

// thread holds the private, single-owner state of one thread.
type thread[T any] struct {
	bags       [3]*blockbag.Bag[T]
	currentBag *blockbag.Bag[T]
	index      int

	checkNext     int64
	opsSinceCheck int64
	opsSinceIncr  int64

	blockPool *blockbag.BlockPool[T]

	// Single-writer statistics counters (core.Counter): written by the
	// owning tid (or by a quiescent-shutdown drainer holding a
	// happens-before edge), read racily by Stats.
	retired       core.Counter
	freed         core.Counter
	epochAdvances core.Counter
	scans         core.Counter

	_ [core.PadBytes]byte
}

// blockPoolLender is a sink that stores records in block bags and lends out
// the per-thread pool its emptied blocks return to (pool.Pool). Thread tid's
// pool is only ever used by the owner of tid.
type blockPoolLender[T any] interface {
	BlockPool(tid int) *blockbag.BlockPool[T]
}

// New creates a DEBRA reclaimer for n threads. Reclaimed records are given
// to sink; if sink also implements core.BlockFreeSink, full blocks are moved
// wholesale, and if it lends its block pools the limbo bags share them.
func New[T any](n int, sink core.FreeSink[T], opts ...Option) *Reclaimer[T] {
	if n <= 0 {
		panic("debra: New requires n >= 1")
	}
	if sink == nil {
		panic("debra: New requires a FreeSink")
	}
	cfg := config{checkThresh: DefaultCheckThresh, incrThresh: DefaultIncrThresh}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.checkThresh < 1 {
		cfg.checkThresh = 1
	}
	if cfg.incrThresh < 1 {
		cfg.incrThresh = 1
	}
	smap := core.NewShardMap(n, cfg.spec)
	r := &Reclaimer[T]{
		sink:    sink,
		cfg:     cfg,
		smap:    smap,
		shards:  make([]shardSummary, smap.Shards()),
		shared:  make([]announceSlot, n),
		threads: make([]thread[T], n),
	}
	if bs, ok := sink.(core.BlockFreeSink[T]); ok {
		r.blockSink = bs
	}
	lender, _ := sink.(blockPoolLender[T])
	r.epoch.Store(epochInc)
	for i := range r.threads {
		t := &r.threads[i]
		if r.blockSink != nil && lender != nil {
			t.blockPool = lender.BlockPool(i)
		} else {
			t.blockPool = blockbag.NewBlockPool[T](blockbag.DefaultBlockPoolCap)
		}
		for j := range t.bags {
			t.bags[j] = blockbag.New(t.blockPool)
		}
		t.currentBag = t.bags[0]
		t.index = 0
		// Every thread starts quiescent with an announcement that differs
		// from the current epoch, so its first LeaveQstate rotates nothing.
		r.shared[i].v.Store(quiescentBit)
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
func (r *Reclaimer[T]) Name() string { return "debra" }

// Props implements core.Reclaimer.
func (r *Reclaimer[T]) Props() core.Properties {
	return core.Properties{
		Scheme:                   "DEBRA",
		ModPerOperation:          true,
		ModPerRetiredRecord:      true,
		Termination:              core.ProgressWaitFree,
		TraverseRetiredToRetired: true,
		FaultTolerant:            false, // partial: only quiescent crashes are tolerated
		BoundedGarbage:           false,
	}
}

// isEqual reports whether announcement ann announces epoch readEpoch.
func isEqual(readEpoch, ann int64) bool { return readEpoch == ann&^quiescentBit }

// LeaveQstate implements core.ReclaimerHandle (Figure 4, leaveQstate), with
// the thread's private state, announcement slot and shard member list
// pre-resolved.
func (h *handle[T]) LeaveQstate() bool {
	r, t := h.r, h.t
	result := false
	readEpoch := r.epoch.Load()
	if !isEqual(readEpoch, h.slot.v.Load()) {
		// Our announcement differs from the current epoch: we are observing
		// a new epoch, so the records in our oldest limbo bag were retired
		// at least two epochs ago and can be reclaimed.
		t.opsSinceCheck = 0
		t.checkNext = 0
		t.opsSinceIncr = 0
		r.rotateAndReclaim(h.tid)
		result = true
	}
	// Incrementally scan: one check every CHECK_THRESH operations. The scan
	// cycle first covers the caller's shard members (publishing the shard's
	// verified epoch in its summary word once complete), then the other
	// shards' summary words.
	t.opsSinceCheck++
	t.opsSinceIncr++
	if t.opsSinceCheck >= r.cfg.checkThresh {
		t.opsSinceCheck = 0
		nm := int64(len(h.members))
		total := nm + int64(len(r.shards))
		if t.checkNext < nm {
			// Member phase: vacant slots are quiescent by the release
			// contract and are fast-forwarded wholesale, then one live
			// shard-local announcement is checked. The fast-forward is what
			// keeps the scan cycle proportional to the live population, not
			// the registry capacity, when slots churn.
			for t.checkNext < nm && !r.smap.SlotOccupied(h.members[t.checkNext]) {
				t.checkNext++
			}
			if t.checkNext < nm {
				ann := r.shared[h.members[t.checkNext]].v.Load()
				if isEqual(readEpoch, ann) || ann&quiescentBit != 0 {
					t.checkNext++
				}
			}
			if t.checkNext == nm {
				r.shards[h.self].v.Store(readEpoch)
			}
		} else {
			// Summary phase: check one shard summary per operation,
			// cycling while the epoch stands still.
			s := int((t.checkNext - nm) % int64(len(r.shards)))
			if r.shardAt(h.tid, s, readEpoch) {
				t.checkNext++
			}
		}
		if t.checkNext >= total && t.opsSinceIncr >= r.cfg.incrThresh {
			if r.epoch.CompareAndSwap(readEpoch, readEpoch+epochInc) {
				t.epochAdvances.Inc()
			}
		}
	}
	// Announce the (possibly new) epoch with the quiescent bit cleared.
	h.slot.v.Store(readEpoch)
	return result
}

// shardAt reports whether shard s has been verified at epoch readEpoch:
// its summary matches, or a direct scan of its members (the slow path for
// lagging shards, typically shards that are entirely quiescent) passes, in
// which case the summary is helped forward. tid is unused here but keeps
// the signature shared with DEBRA+'s neutralizing override.
func (r *Reclaimer[T]) shardAt(tid, s int, readEpoch int64) bool {
	if r.shards[s].v.Load() == readEpoch {
		return true
	}
	if r.smap.ShardLive(s) == 0 {
		// Zero live occupants: every member is vacant, hence quiescent; the
		// lagging (idle) shard is verified in O(1).
		r.shards[s].v.Store(readEpoch)
		return true
	}
	for _, m := range r.smap.Members(s) {
		ann := r.shared[m].v.Load()
		if !isEqual(readEpoch, ann) && ann&quiescentBit == 0 {
			return false
		}
	}
	r.shards[s].v.Store(readEpoch)
	return true
}

// ShardMap implements core.Sharded.
func (r *Reclaimer[T]) ShardMap() *core.ShardMap { return r.smap }

// EnterQstate implements core.ReclaimerHandle: set the quiescent bit.
func (h *handle[T]) EnterQstate() {
	h.slot.v.Store(h.slot.v.Load() | quiescentBit)
}

// IsQuiescent implements core.ReclaimerHandle.
func (h *handle[T]) IsQuiescent() bool { return h.slot.v.Load()&quiescentBit != 0 }

// PinRetire implements core.RetirePinner: clear the quiescent bit while
// keeping the announced epoch, without LeaveQstate's rotation and scan
// bookkeeping. A possibly stale announcement with the bit clear reads as a
// mid-operation thread to every scanner, so the epoch cannot run ahead while
// the pin stands — the same conservative pin a worker's operation provides,
// held only for the duration of the hand-off.
func (r *Reclaimer[T]) PinRetire(tid int) {
	s := &r.shared[tid]
	s.v.Store(s.v.Load() &^ quiescentBit)
}

// UnpinRetire implements core.RetirePinner: set the quiescent bit again. No
// rotation happens — the retired records wait in the current bag for the
// owner's next real LeaveQstate cycles, or for DrainLimbo at shutdown.
func (r *Reclaimer[T]) UnpinRetire(tid int) {
	s := &r.shared[tid]
	s.v.Store(s.v.Load() | quiescentBit)
}

// requirePinned panics when thread tid retires with its quiescent bit set.
// DEBRA's limbo bags are single-owner, but the scheme's bag-rotation
// argument ("records in the oldest bag were retired at least two observed
// epochs ago") is stated for deposits made by a non-quiescent thread; the
// uniform epoch-scheme contract (core.RetirePinner) is that quiescent
// callers pin first.
func (r *Reclaimer[T]) requirePinned(tid int) {
	if r.shared[tid].v.Load()&quiescentBit != 0 {
		panic("debra: Retire from a quiescent context; pin the thread first (PinRetire or LeaveQstate)")
	}
}

// Retire implements core.ReclaimerHandle: add the record to the current limbo
// bag (O(1) worst case). The caller must be pinned (mid-operation, or inside
// a PinRetire/UnpinRetire window).
func (h *handle[T]) Retire(rec *T) {
	if rec == nil {
		panic("debra: Retire(nil)")
	}
	if h.slot.v.Load()&quiescentBit != 0 {
		panic("debra: Retire from a quiescent context; pin the thread first (PinRetire or LeaveQstate)")
	}
	h.t.currentBag.Add(rec)
	h.t.retired.Inc()
}

// Protect implements core.ReclaimerHandle. DEBRA needs no per-record
// protection; the call is a no-op that always succeeds (and is skipped
// entirely by data structures that consult Props().PerRecordProtection).
func (h *handle[T]) Protect(rec *T) bool { return true }

// Unprotect implements core.ReclaimerHandle (no-op).
func (h *handle[T]) Unprotect(rec *T) {}

// IsProtected implements core.ReclaimerHandle.
func (h *handle[T]) IsProtected(rec *T) bool { return true }

// RProtect implements core.ReclaimerHandle (no-op; DEBRA has no crash
// recovery).
func (h *handle[T]) RProtect(rec *T) {}

// RUnprotectAll implements core.ReclaimerHandle (no-op).
func (h *handle[T]) RUnprotectAll() {}

// IsRProtected implements core.ReclaimerHandle.
func (h *handle[T]) IsRProtected(rec *T) bool { return false }

// Checkpoint implements core.ReclaimerHandle (no-op).
func (h *handle[T]) Checkpoint() {}

// RetireBlock implements core.BlockReclaimer: splice one detached full block
// into the caller's current limbo bag in O(1) (single-owner, so the batch
// hand-off is synchronisation-free), returning a recycled empty block from
// the thread's pool in exchange when one is cached. The caller must be
// pinned like for Retire.
func (r *Reclaimer[T]) RetireBlock(tid int, blk *blockbag.Block[T]) *blockbag.Block[T] {
	if blk == nil {
		return nil
	}
	r.requirePinned(tid)
	t := &r.threads[tid]
	n := int64(blk.Len())
	t.currentBag.AddBlock(blk)
	t.retired.Add(n)
	return t.blockPool.TryGet()
}

// DrainLimbo implements core.LimboDrainer: free every record in every
// thread's limbo bags, partial head blocks included. Only safe once every
// thread is quiescent for good and the caller holds a happens-before edge
// from their last operation (joined goroutines).
func (r *Reclaimer[T]) DrainLimbo(tid int) int64 {
	for i := range r.shared {
		if r.shared[i].v.Load()&quiescentBit == 0 {
			panic("debra: DrainLimbo while a thread is still non-quiescent")
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

// rotateAndReclaim implements Figure 4's rotateAndReclaim: reuse the oldest
// limbo bag as the new current bag and move its full blocks to the sink.
func (r *Reclaimer[T]) rotateAndReclaim(tid int) {
	t := &r.threads[tid]
	t.index = (t.index + 1) % 3
	t.currentBag = t.bags[t.index]
	if chain := t.currentBag.DetachAllFullBlocks(); chain != nil {
		t.freed.Add(core.FreeChain(r.sink, r.blockSink, t.blockPool, tid, chain))
	}
}

// Epoch returns the current global epoch (instrumentation).
func (r *Reclaimer[T]) Epoch() int64 { return r.epoch.Load() }

// LimboSize returns the number of records currently waiting in thread tid's
// limbo bags (instrumentation for tests and the harness; only approximate
// when tid is running concurrently).
func (r *Reclaimer[T]) LimboSize(tid int) int {
	t := &r.threads[tid]
	total := 0
	for _, b := range t.bags {
		total += b.Len()
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
		s.EpochAdvances += t.epochAdvances.Load()
		s.Scans += t.scans.Load()
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

// Package debraplus implements DEBRA+, the fault-tolerant distributed epoch
// based reclamation scheme of Section 5 of the paper (Figure 6 pseudocode).
//
// DEBRA+ extends DEBRA with neutralization: a thread that cannot advance the
// epoch because another thread has been non-quiescent for too long sends
// that thread a signal and then treats it as quiescent. The signalled thread
// delivers the signal at its next checkpoint, enters a quiescent state and
// jumps (via a typed panic recovered by the operation wrapper) into recovery
// code. Recovery uses a limited form of hazard pointers — RProtect /
// RUnprotectAll / IsRProtected — so that a neutralized thread can still help
// its own announced operation to completion even though other threads have
// stopped waiting for it.
//
// Consequences reproduced here:
//
//   - reclamation continues even if a thread stalls or crashes in the middle
//     of an operation (fault tolerance);
//   - at any time O(n·(n·m + c)) records are waiting to be freed, where m is
//     the largest number of records retired by one operation and c is the
//     suspicion threshold;
//   - freeing a record costs O(1) expected amortised time: limbo bags are
//     scanned against the RProtect table only once they hold at least
//     scanThreshold blocks, protected records are swapped to the front of
//     the bag, and everything behind them is moved to the pool in whole
//     blocks.
//
// See the internal/neutralize package documentation for how POSIX signal
// delivery and siglongjmp are simulated, and for the argument that the
// weaker "delivery at the next checkpoint" guarantee preserves safety.
package debraplus

import (
	"sync/atomic"

	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/neutralize"
	"repro/internal/reclaim/debra"
)

// Defaults for the DEBRA+ specific thresholds. The DEBRA pacing constants
// (CHECK_THRESH, INCR_THRESH) are reused from the debra package.
const (
	// DefaultSuspectThresholdBlocks is the number of blocks the caller's
	// current limbo bag must reach before it suspects (and neutralizes) a
	// thread that is holding the epoch back.
	DefaultSuspectThresholdBlocks = 4
	// DefaultMaxRProtect is the number of recovery hazard pointer slots per
	// thread (the paper's k); data structure operations protect a small
	// constant number of records plus one descriptor.
	DefaultMaxRProtect = 32
)

// Option configures the reclaimer.
type Option func(*config)

type config struct {
	checkThresh           int64
	incrThresh            int64
	suspectThresholdBlks  int
	scanThresholdBlks     int
	maxRProtect           int
	domain                *neutralize.Domain
	disableNeutralization bool
	spec                  core.ShardSpec
}

// WithShards partitions the incremental announcement scan into sharded
// domains, exactly as in DEBRA (see debra.WithShards): the fast path checks
// only shard-local announcements plus per-shard summary words. Fault
// tolerance is preserved across shard boundaries: when a lagging shard
// blocks the summary phase, the scanning thread falls back to that shard's
// members directly and neutralizes the laggards once its own limbo bag has
// grown past the suspicion threshold — so a thread stalled mid-operation in
// ANY shard is eventually signalled by whichever thread is trying to
// advance, not only by its shard mates.
func WithShards(spec core.ShardSpec) Option { return func(c *config) { c.spec = spec } }

// WithCheckThresh sets the announcement-check pacing (CHECK_THRESH).
func WithCheckThresh(v int) Option { return func(c *config) { c.checkThresh = int64(v) } }

// WithIncrThresh sets the epoch-advance pacing (INCR_THRESH).
func WithIncrThresh(v int) Option { return func(c *config) { c.incrThresh = int64(v) } }

// WithSuspectThresholdBlocks sets how large (in blocks) a thread's current
// limbo bag must grow before it starts neutralizing laggards.
func WithSuspectThresholdBlocks(v int) Option {
	return func(c *config) { c.suspectThresholdBlks = v }
}

// WithScanThresholdBlocks sets how large (in blocks) a rotated limbo bag must
// be before it is scanned against the RProtect table and reclaimed. The
// default is derived from n and the RProtect capacity so that each scan frees
// Omega(nk) records, giving O(1) amortised cost per record.
func WithScanThresholdBlocks(v int) Option { return func(c *config) { c.scanThresholdBlks = v } }

// WithMaxRProtect sets the number of recovery hazard pointer slots per
// thread.
func WithMaxRProtect(v int) Option { return func(c *config) { c.maxRProtect = v } }

// WithDomain supplies an externally created neutralization domain so that
// several reclaimers (or the test harness) can share one set of signal
// words. By default each reclaimer creates its own domain.
func WithDomain(d *neutralize.Domain) Option { return func(c *config) { c.domain = d } }

// WithNeutralizationDisabled turns off signalling entirely (the reclaimer
// then degrades to DEBRA's behaviour); used by ablation benchmarks.
func WithNeutralizationDisabled() Option { return func(c *config) { c.disableNeutralization = true } }

// Reclaimer implements core.Reclaimer with DEBRA+.
type Reclaimer[T any] struct {
	sink      core.FreeSink[T]
	blockSink core.BlockFreeSink[T]
	cfg       config
	domain    *neutralize.Domain

	epoch   atomic.Int64
	smap    *core.ShardMap
	shards  []shardSummary
	shared  []announceSlot
	rprot   []rprotectSlots[T]
	threads []thread[T]
	handles []handle[T]
}

// handle is one thread slot's view (core.ReclaimerHandle): the slot's
// private state, announcement word, recovery table and shard scan set
// resolved once, so per-operation calls index no slices at all.
type handle[T any] struct {
	r       *Reclaimer[T]
	t       *thread[T]
	slot    *announceSlot
	rp      *rprotectSlots[T]
	tid     int
	members []int
	self    int
}

// shardSummary is a shard's verified-epoch word (see debra.WithShards).
type shardSummary struct {
	v atomic.Int64
	_ [core.PadBytes]byte
}

type announceSlot struct {
	v atomic.Int64
	_ [core.PadBytes]byte
}

// rprotectSlots is one thread's recovery-hazard-pointer table: written only
// by its owner, read by every thread that scans before freeing.
type rprotectSlots[T any] struct {
	count atomic.Int32
	slots []atomic.Pointer[T]
	_     [core.PadBytes]byte
}

type thread[T any] struct {
	bags       [3]*blockbag.Bag[T]
	currentBag *blockbag.Bag[T]
	index      int

	checkNext     int64
	opsSinceCheck int64
	opsSinceIncr  int64

	blockPool *blockbag.BlockPool[T]
	scanSet   map[*T]struct{} // scratch hash table reused across scans

	// Single-writer statistics counters (core.Counter): written by the
	// owning tid (neutralizations by the signalling tid, selfNeutralized by
	// the delivering tid — both single-writer), read racily by Stats.
	retired         core.Counter
	freed           core.Counter
	epochAdvances   core.Counter
	scans           core.Counter
	neutralizations core.Counter
	selfNeutralized core.Counter

	_ [core.PadBytes]byte
}

const (
	epochInc     = 2
	quiescentBit = 1
)

// New creates a DEBRA+ reclaimer for n threads. Reclaimed records are handed
// to sink (whole blocks when it implements core.BlockFreeSink).
func New[T any](n int, sink core.FreeSink[T], opts ...Option) *Reclaimer[T] {
	if n <= 0 {
		panic("debraplus: New requires n >= 1")
	}
	if sink == nil {
		panic("debraplus: New requires a FreeSink")
	}
	cfg := config{
		checkThresh:          debra.DefaultCheckThresh,
		incrThresh:           debra.DefaultIncrThresh,
		suspectThresholdBlks: DefaultSuspectThresholdBlocks,
		maxRProtect:          DefaultMaxRProtect,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.checkThresh < 1 {
		cfg.checkThresh = 1
	}
	if cfg.incrThresh < 1 {
		cfg.incrThresh = 1
	}
	if cfg.maxRProtect < 1 {
		cfg.maxRProtect = 1
	}
	if cfg.suspectThresholdBlks < 1 {
		cfg.suspectThresholdBlks = 1
	}
	if cfg.scanThresholdBlks <= 0 {
		// Scan once the bag holds at least n*k records (rounded up to
		// blocks) plus one block, so each scan can free Omega(nk) records.
		cfg.scanThresholdBlks = (n*cfg.maxRProtect)/blockbag.BlockSize + 2
	}
	dom := cfg.domain
	if dom == nil {
		dom = neutralize.NewDomain(n)
	}
	smap := core.NewShardMap(n, cfg.spec)
	r := &Reclaimer[T]{
		sink:    sink,
		cfg:     cfg,
		domain:  dom,
		smap:    smap,
		shards:  make([]shardSummary, smap.Shards()),
		shared:  make([]announceSlot, n),
		rprot:   make([]rprotectSlots[T], n),
		threads: make([]thread[T], n),
	}
	if bs, ok := sink.(core.BlockFreeSink[T]); ok {
		r.blockSink = bs
	}
	r.epoch.Store(epochInc)
	for i := range r.threads {
		t := &r.threads[i]
		t.blockPool = blockbag.NewBlockPool[T](blockbag.DefaultBlockPoolCap)
		for j := range t.bags {
			t.bags[j] = blockbag.New(t.blockPool)
		}
		t.currentBag = t.bags[0]
		t.scanSet = make(map[*T]struct{}, n*cfg.maxRProtect)
		r.shared[i].v.Store(quiescentBit)
		r.rprot[i].slots = make([]atomic.Pointer[T], cfg.maxRProtect)
	}
	r.handles = make([]handle[T], n)
	for i := range r.handles {
		self := smap.ShardOf(i)
		r.handles[i] = handle[T]{
			r:       r,
			t:       &r.threads[i],
			slot:    &r.shared[i],
			rp:      &r.rprot[i],
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
func (r *Reclaimer[T]) Name() string { return "debra+" }

// Props implements core.Reclaimer.
func (r *Reclaimer[T]) Props() core.Properties {
	return core.Properties{
		Scheme:                   "DEBRA+",
		ModPerOperation:          true,
		ModPerRetiredRecord:      true,
		ModOther:                 "write crash recovery code (trivial for descriptor-based operations)",
		Termination:              core.ProgressWaitFreeSignal,
		TraverseRetiredToRetired: true,
		FaultTolerant:            true,
		BoundedGarbage:           true,
		CrashRecovery:            true,
	}
}

// Domain returns the neutralization domain used by this reclaimer.
func (r *Reclaimer[T]) Domain() *neutralize.Domain { return r.domain }

func isEqual(readEpoch, ann int64) bool { return readEpoch == ann&^quiescentBit }

// deliver performs the signal-handler action for a non-quiescent thread:
// enter the quiescent state and jump (panic) to recovery.
func (r *Reclaimer[T]) deliver(tid int) {
	s := &r.shared[tid]
	s.v.Store(s.v.Load() | quiescentBit)
	r.domain.Consume(tid)
	r.threads[tid].selfNeutralized.Inc()
	panic(neutralize.Neutralized{Tid: tid})
}

// LeaveQstate implements core.ReclaimerHandle (Figure 6, leaveQstate).
func (h *handle[T]) LeaveQstate() bool {
	r, t, tid := h.r, h.t, h.tid
	// Signals that arrived while we were quiescent are ignored, exactly as
	// the paper's signal handler returns immediately for quiescent threads.
	r.domain.Consume(tid)

	result := false
	readEpoch := r.epoch.Load()
	if !isEqual(readEpoch, h.slot.v.Load()) {
		t.opsSinceCheck = 0
		t.checkNext = 0
		t.opsSinceIncr = 0
		r.rotateAndReclaim(tid)
		result = true
	}
	t.opsSinceCheck++
	t.opsSinceIncr++
	if t.opsSinceCheck >= r.cfg.checkThresh {
		t.opsSinceCheck = 0
		nm := int64(len(h.members))
		total := nm + int64(len(r.shards))
		if t.checkNext < nm {
			// Member phase: vacant slots are quiescent by the release
			// contract and are fast-forwarded wholesale (and must never be
			// signalled — see suspectNeutralized); then one live shard-local
			// announcement is checked per operation, and a laggard holding
			// the epoch back for too long is neutralized and treated as
			// quiescent (Figure 6).
			for t.checkNext < nm && !r.smap.SlotOccupied(h.members[t.checkNext]) {
				t.checkNext++
			}
			if t.checkNext < nm {
				other := h.members[t.checkNext]
				ann := r.shared[other].v.Load()
				if isEqual(readEpoch, ann) || ann&quiescentBit != 0 || r.suspectNeutralized(tid, other) {
					t.checkNext++
				}
			}
			if t.checkNext == nm {
				r.shards[h.self].v.Store(readEpoch)
			}
		} else {
			// Summary phase: one shard summary per operation; lagging
			// shards are verified (and their laggards neutralized) by a
			// direct member scan.
			s := int((t.checkNext - nm) % int64(len(r.shards)))
			if r.shardAt(tid, s, readEpoch) {
				t.checkNext++
			}
		}
		if t.checkNext >= total && t.opsSinceIncr >= r.cfg.incrThresh {
			if r.epoch.CompareAndSwap(readEpoch, readEpoch+epochInc) {
				t.epochAdvances.Inc()
			}
		}
	}
	h.slot.v.Store(readEpoch)
	return result
}

// shardAt reports whether shard s has been verified at epoch readEpoch: its
// summary matches, or every member is quiescent, at the epoch, or freshly
// neutralized (in which case the summary is helped forward). This is the
// cross-shard slow path that preserves DEBRA+'s fault tolerance when
// threads span multiple domains.
func (r *Reclaimer[T]) shardAt(tid, s int, readEpoch int64) bool {
	if r.shards[s].v.Load() == readEpoch {
		return true
	}
	if r.smap.ShardLive(s) == 0 {
		// Zero live occupants: every member is vacant, hence quiescent; the
		// lagging shard is verified in O(1) and nobody gets signalled.
		r.shards[s].v.Store(readEpoch)
		return true
	}
	for _, m := range r.smap.Members(s) {
		if !r.smap.SlotOccupied(m) {
			// Vacant: quiescent by the release contract, never signalled.
			continue
		}
		ann := r.shared[m].v.Load()
		if isEqual(readEpoch, ann) || ann&quiescentBit != 0 || r.suspectNeutralized(tid, m) {
			continue
		}
		return false
	}
	r.shards[s].v.Store(readEpoch)
	return true
}

// ShardMap implements core.Sharded.
func (r *Reclaimer[T]) ShardMap() *core.ShardMap { return r.smap }

// suspectNeutralized neutralizes thread other if the caller's current limbo
// bag has grown past the suspicion threshold. Returns true when a signal was
// sent, in which case the caller may treat other as quiescent.
func (r *Reclaimer[T]) suspectNeutralized(tid, other int) bool {
	if r.cfg.disableNeutralization || other == tid {
		return false
	}
	if !r.smap.SlotOccupied(other) {
		// Never signal a vacant slot: nobody owns it, and a pending signal
		// would land on whatever goroutine acquires the slot next (harmless —
		// the first LeaveQstate consumes stale signals, and a mid-operation
		// delivery is an ordinary restartable neutralization — but a wasted
		// signal and a spurious restart). Vacant slots are quiescent by the
		// release contract, so the member passes without one.
		return true
	}
	t := &r.threads[tid]
	if t.currentBag.LenBlocks() < r.cfg.suspectThresholdBlks {
		return false
	}
	if r.domain.Pending(other) {
		// A signal we (or someone else) already sent has not been consumed
		// yet; the thread is as good as neutralized, so there is no need to
		// send another one (real signals are not free).
		return true
	}
	r.domain.Signal(other)
	t.neutralizations.Inc()
	return true
}

// EnterQstate implements core.ReclaimerHandle. A signal that is pending when
// the body finishes is delivered rather than swallowed, so an operation never
// returns a result computed from records that may have been reclaimed behind
// its back (the neutralization-window argument; see the package doc and
// internal/neutralize).
func (h *handle[T]) EnterQstate() {
	s := h.slot
	if s.v.Load()&quiescentBit == 0 && h.r.domain.Pending(h.tid) {
		h.r.deliver(h.tid)
	}
	s.v.Store(s.v.Load() | quiescentBit)
}

// IsQuiescent implements core.ReclaimerHandle.
func (h *handle[T]) IsQuiescent() bool { return h.slot.v.Load()&quiescentBit != 0 }

// Checkpoint implements core.ReclaimerHandle: deliver a pending signal to a
// non-quiescent thread. Data structure bodies call this once per search-loop
// iteration.
func (h *handle[T]) Checkpoint() {
	if h.slot.v.Load()&quiescentBit != 0 {
		return
	}
	if h.r.domain.Pending(h.tid) {
		h.r.deliver(h.tid)
	}
}

// PinRetire implements core.RetirePinner: clear the quiescent bit while
// keeping the announced epoch (see debra.Reclaimer.PinRetire; the same
// conservative pin). A signal arriving while pinned stays pending: Retire
// and RetireBlock contain no checkpoint, UnpinRetire sets the bit back
// without delivering — a pinned retirer computes nothing from shared
// records, so there is nothing a neutralization would need to discard — and
// the signal is consumed (ignored, as for any quiescent thread) at the
// owner's next LeaveQstate.
func (r *Reclaimer[T]) PinRetire(tid int) {
	s := &r.shared[tid]
	s.v.Store(s.v.Load() &^ quiescentBit)
}

// UnpinRetire implements core.RetirePinner.
func (r *Reclaimer[T]) UnpinRetire(tid int) {
	s := &r.shared[tid]
	s.v.Store(s.v.Load() | quiescentBit)
}

// requirePinned panics on a quiescent retire (core.RetirePinner contract;
// see the debra package for the rationale).
func (r *Reclaimer[T]) requirePinned(tid int) {
	if r.shared[tid].v.Load()&quiescentBit != 0 {
		panic("debraplus: Retire from a quiescent context; pin the thread first (PinRetire or LeaveQstate)")
	}
}

// Retire implements core.ReclaimerHandle. The caller must be pinned
// (mid-operation, or inside a PinRetire/UnpinRetire window).
func (h *handle[T]) Retire(rec *T) {
	if rec == nil {
		panic("debraplus: Retire(nil)")
	}
	if h.slot.v.Load()&quiescentBit != 0 {
		panic("debraplus: Retire from a quiescent context; pin the thread first (PinRetire or LeaveQstate)")
	}
	h.t.currentBag.Add(rec)
	h.t.retired.Inc()
}

// Protect implements core.ReclaimerHandle (epoch protection; no per-record
// work).
func (h *handle[T]) Protect(rec *T) bool { return true }

// Unprotect implements core.ReclaimerHandle (no-op).
func (h *handle[T]) Unprotect(rec *T) {}

// IsProtected implements core.ReclaimerHandle.
func (h *handle[T]) IsProtected(rec *T) bool { return true }

// RetireBlock implements core.BlockReclaimer: splice one detached full block
// into the caller's current limbo bag in O(1) (single-owner, no
// synchronisation), returning a recycled empty block from the thread's pool
// in exchange when one is cached. The spliced records take part in the
// RProtect scan of rotateAndReclaim like individually retired ones.
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
// thread's limbo bags that is not covered by a recovery protection (records
// still RProtected are left in place — at a clean shutdown every recovery
// table is empty and everything drains). Only safe once every thread is
// quiescent for good and the caller holds a happens-before edge from their
// last operation.
func (r *Reclaimer[T]) DrainLimbo(tid int) int64 {
	for i := range r.shared {
		if r.shared[i].v.Load()&quiescentBit == 0 {
			panic("debraplus: DrainLimbo while a thread is still non-quiescent")
		}
	}
	protected := make(map[*T]struct{})
	for i := range r.rprot {
		rp := &r.rprot[i]
		n := int(rp.count.Load())
		if n > len(rp.slots) {
			n = len(rp.slots)
		}
		for j := 0; j < n; j++ {
			if rec := rp.slots[j].Load(); rec != nil {
				protected[rec] = struct{}{}
			}
		}
	}
	var total int64
	for i := range r.threads {
		t := &r.threads[i]
		var n int64
		for _, bag := range t.bags {
			var keep []*T
			bag.Drain(func(rec *T) {
				if _, ok := protected[rec]; ok {
					keep = append(keep, rec)
					return
				}
				r.sink.Free(tid, rec)
				n++
			})
			for _, rec := range keep {
				bag.Add(rec)
			}
		}
		t.freed.Add(n)
		total += n
	}
	return total
}

// RProtect implements core.ReclaimerHandle: announce a recovery hazard pointer
// to rec. RProtect is called in the non-quiescent body, so it may deliver a
// pending neutralization; in that case the protections announced so far are
// withdrawn before jumping to recovery, which guarantees that recovery never
// relies on a protection a concurrent scanner might have missed (the
// announce-then-recheck handshake).
func (h *handle[T]) RProtect(rec *T) {
	if rec == nil {
		return
	}
	rp := h.rp
	n := rp.count.Load()
	if int(n) >= len(rp.slots) {
		panic("debraplus: RProtect capacity exceeded; raise WithMaxRProtect")
	}
	rp.slots[n].Store(rec)
	rp.count.Store(n + 1)
	if h.r.domain.Pending(h.tid) && h.slot.v.Load()&quiescentBit == 0 {
		h.RUnprotectAll()
		h.r.deliver(h.tid)
	}
}

// RUnprotectAll implements core.ReclaimerHandle.
func (h *handle[T]) RUnprotectAll() { h.rp.count.Store(0) }

// IsRProtected implements core.ReclaimerHandle.
func (h *handle[T]) IsRProtected(rec *T) bool {
	rp := h.rp
	n := int(rp.count.Load())
	for i := 0; i < n; i++ {
		if rp.slots[i].Load() == rec {
			return true
		}
	}
	return false
}

// rotateAndReclaim implements Figure 6's rotateAndReclaim: rotate the limbo
// bags and, once the rotated bag is large enough to amortise the scan, free
// every record in it that is not RProtected, moving whole blocks to the free
// sink after swapping protected records to the front of the bag.
func (r *Reclaimer[T]) rotateAndReclaim(tid int) {
	t := &r.threads[tid]
	t.index = (t.index + 1) % 3
	t.currentBag = t.bags[t.index]
	bag := t.currentBag
	if bag.LenBlocks() < r.cfg.scanThresholdBlks {
		return
	}
	t.scans.Inc()
	// Hash every announced recovery protection.
	set := t.scanSet
	clear(set)
	for i := range r.rprot {
		rp := &r.rprot[i]
		n := int(rp.count.Load())
		if n > len(rp.slots) {
			n = len(rp.slots)
		}
		for j := 0; j < n; j++ {
			if rec := rp.slots[j].Load(); rec != nil {
				set[rec] = struct{}{}
			}
		}
	}
	// Swap protected records to the front of the bag.
	it1 := bag.Begin()
	it2 := bag.Begin()
	for ; !it1.Done(); it1.Next() {
		if _, ok := set[it1.Get()]; ok {
			it1.Swap(&it2)
			it2.Next()
		}
	}
	// Everything after it2 is unprotected; move its full blocks to the sink.
	if chain := bag.DetachFullBlocksAfter(it2); chain != nil {
		t.freed.Add(core.FreeChain(r.sink, r.blockSink, t.blockPool, tid, chain))
	}
}

// Epoch returns the current global epoch (instrumentation).
func (r *Reclaimer[T]) Epoch() int64 { return r.epoch.Load() }

// LimboSize returns the number of records waiting in thread tid's limbo bags.
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
		s.Neutralizations += t.neutralizations.Load()
	}
	s.Limbo = s.Retired - s.Freed
	return s
}

// SelfNeutralizations returns how many times thread tid delivered a signal
// to itself (jumped to recovery); instrumentation for tests.
func (r *Reclaimer[T]) SelfNeutralizations(tid int) int64 {
	return r.threads[tid].selfNeutralized.Load()
}

var (
	_ core.Reclaimer[int]      = (*Reclaimer[int])(nil)
	_ core.BlockReclaimer[int] = (*Reclaimer[int])(nil)
	_ core.Sharded             = (*Reclaimer[int])(nil)
	_ core.RetirePinner        = (*Reclaimer[int])(nil)
	_ core.LimboDrainer        = (*Reclaimer[int])(nil)
)

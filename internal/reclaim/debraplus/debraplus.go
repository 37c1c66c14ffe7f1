// Package debraplus implements DEBRA+, the fault-tolerant distributed epoch
// based reclamation scheme of Section 5 of the paper (Figure 6), as DEBRA
// (internal/reclaim/debra) plus what the paper adds to it: neutralization. A
// thread that cannot advance the epoch because another has been non-quiescent
// for too long sends that thread a signal and then treats it as quiescent.
// The signalled thread delivers the signal at its next checkpoint, enters a
// quiescent state and jumps (via a typed panic recovered by the operation
// wrapper) into recovery code. Recovery uses a limited form of hazard
// pointers — RProtect / RUnprotectAll, announced in a hazard table of its own
// (hp.Table) — so that a neutralized thread can still help its own announced
// operation to completion even though other threads have stopped waiting for
// it.
//
// Consequences reproduced here:
//
//   - reclamation continues even if a thread stalls or crashes in the middle
//     of an operation (fault tolerance);
//   - at any time O(n·(n·m + c)) records are waiting to be freed, where m is
//     the largest number of records retired by one operation and c is the
//     suspicion threshold;
//   - freeing a record costs O(1) expected amortised time: limbo bags are
//     swept against the RProtect table (hp.Table.Sweep) only once they hold
//     at least scanThreshold blocks; the sweep hands every record no
//     protection covers to the pool in one block chain, and the bag keeps
//     only the protected ones.
//
// DEBRA's other advance trigger, a current limbo bag of bagThresh records,
// is off here (epoch.Limbo.Late): a rotation sweeps a bag only once it holds
// scanThreshold blocks and leaves the rest in it, so the current bag's size
// is not what the thread retired since its last rotation. With the trigger a
// running thread advanced the epoch on nearly every completed pass (6,580
// advances in 21,000 two-slot operations, against 105), and Experiment 2's
// "DEBRA+ vs None" fell from 0.76–0.83 to 0.61–0.68 (2 cores). A running
// thread's limbo is bounded by the sweep threshold instead, at about three
// bags of scanThreshold blocks each (at most 897 records in a two-slot run at
// the default thresholds), where DEBRA's is about 2·bagThresh plus one pass's
// retires.
//
// See the internal/neutralize package documentation for how POSIX signal
// delivery and siglongjmp are simulated, and for the argument that the
// weaker "delivery at the next checkpoint" guarantee preserves safety;
// docs/ARCHITECTURE.md ("The epoch schemes") sets the scheme beside the other
// three.
package debraplus

import (
	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/neutralize"
	"repro/internal/reclaim/debra"
	"repro/internal/reclaim/epoch"
	"repro/internal/reclaim/hp"
)

// Defaults for the DEBRA+ specific thresholds.
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

// config is DEBRA+'s own settings, carried in epoch.Config.Policy.
type config struct {
	suspectThresholdBlks  int
	scanThresholdBlks     int
	maxRProtect           int
	domain                *neutralize.Domain
	disableNeutralization bool
}

// settings returns DEBRA+'s settings within c, created with their defaults on
// first use.
func settings(c *epoch.Config) *config {
	if c.Policy == nil {
		c.Policy = &config{suspectThresholdBlks: DefaultSuspectThresholdBlocks, maxRProtect: DefaultMaxRProtect}
	}
	return c.Policy.(*config)
}

// WithSuspectThresholdBlocks sets how large (in blocks) a thread's current
// limbo bag must grow before it starts neutralizing laggards.
func WithSuspectThresholdBlocks(v int) epoch.Option {
	return func(c *epoch.Config) { settings(c).suspectThresholdBlks = v }
}

// WithScanThresholdBlocks sets how large (in blocks) a rotated limbo bag must
// be before it is scanned against the RProtect table and reclaimed. The
// default is derived from n and the RProtect capacity so that each scan frees
// Omega(nk) records, giving O(1) amortised cost per record.
func WithScanThresholdBlocks(v int) epoch.Option {
	return func(c *epoch.Config) { settings(c).scanThresholdBlks = v }
}

// WithMaxRProtect sets the number of recovery hazard pointer slots per
// thread.
func WithMaxRProtect(v int) epoch.Option {
	return func(c *epoch.Config) { settings(c).maxRProtect = v }
}

// WithDomain supplies an externally created neutralization domain so that
// several reclaimers (or the test harness) can share one set of signal
// words. By default each reclaimer creates its own domain.
func WithDomain(d *neutralize.Domain) epoch.Option {
	return func(c *epoch.Config) { settings(c).domain = d }
}

// WithNeutralizationDisabled turns off signalling entirely: no suspicion hook
// is installed and the reclaimer verifies exactly as DEBRA does. Used under
// the race detector and by ablation benchmarks.
func WithNeutralizationDisabled() epoch.Option {
	return func(c *epoch.Config) { settings(c).disableNeutralization = true }
}

// Reclaimer implements core.Reclaimer with DEBRA+.
type Reclaimer[T any] struct {
	epoch.Bags[T]
	cfg     config
	domain  *neutralize.Domain
	table   *hp.Table[T] // the recovery protections
	handles []handle[T]
}

// handle is one thread slot's view (core.ReclaimerHandle): DEBRA's, plus the
// thread's row of the recovery table.
type handle[T any] struct {
	debra.Handle[T]
	r    *Reclaimer[T]
	prot *hp.Slots[T]

	// Single-writer counters: neutralizations by the signalling thread,
	// selfNeutralized by the delivering one, sweeps by the sweeping one.
	neutralizations core.Counter
	selfNeutralized core.Counter
	sweeps          core.Counter

	_ [core.PadBytes]byte
}

// New creates a DEBRA+ reclaimer for n threads. Reclaimed records are handed
// to sink in block chains.
func New[T any](n int, sink core.FreeSink[T], opts ...epoch.Option) *Reclaimer[T] {
	r := &Reclaimer[T]{Bags: epoch.NewBags("debra+", n, sink, opts), handles: make([]handle[T], n)}
	cfg := *settings(&r.Config)
	cfg.maxRProtect = max(cfg.maxRProtect, 1)
	cfg.suspectThresholdBlks = max(cfg.suspectThresholdBlks, 1)
	if cfg.scanThresholdBlks <= 0 {
		// Scan once the bag holds at least n*k records (rounded up to
		// blocks) plus one block, so each scan can free Omega(nk) records.
		cfg.scanThresholdBlks = (n*cfg.maxRProtect)/blockbag.BlockSize + 2
	}
	r.cfg = cfg
	r.domain = cfg.domain
	if r.domain == nil {
		r.domain = neutralize.NewDomain(n)
	}
	// A sweep reads every row, vacant slots' too: nothing clears a
	// recovery protection but RUnprotectAll, so a released slot may still
	// hold one.
	r.table = hp.NewTable[T](n, cfg.maxRProtect, nil)
	for i := range r.handles {
		h := &r.handles[i]
		h.Init(&r.Bags, i)
		h.r = r
		h.prot = r.table.Slots(i)
		h.Sweep = h.sweep
		// Suspicion can move the epoch past a live announcement, which
		// breaks the bound filing a retire under the epoch it reads relies
		// on (epoch.Limbo): every retire waits three rotations.
		h.Late = true
		if !cfg.disableNeutralization {
			h.Suspect = h.suspect
		}
	}
	return r
}

// Handle implements core.Reclaimer.
func (r *Reclaimer[T]) Handle(tid int) core.ReclaimerHandle[T] { return &r.handles[tid] }

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

// deliver performs the signal-handler action for a non-quiescent thread:
// enter the quiescent state and jump (panic) to recovery.
func (h *handle[T]) deliver() {
	h.Thread.EnterQstate()
	h.r.domain.Consume(h.Tid)
	h.selfNeutralized.Inc()
	panic(neutralize.Neutralized{Tid: h.Tid})
}

// LeaveQstate implements core.ReclaimerHandle (Figure 6, leaveQstate):
// DEBRA's, after signals that arrived while the thread was quiescent are
// dropped, exactly as the paper's signal handler returns immediately for
// quiescent threads.
func (h *handle[T]) LeaveQstate() {
	h.r.domain.Consume(h.Tid)
	h.Handle.LeaveQstate()
}

// suspect is the epoch machine's suspicion hook (Figure 6): other is live,
// inside an operation and behind the epoch. Once the caller's current limbo
// bag has grown past the suspicion threshold, other is signalled and may be
// treated as quiescent.
func (h *handle[T]) suspect(other int) bool {
	if other == h.Tid || h.Current().LenBlocks() < h.r.cfg.suspectThresholdBlks {
		return false
	}
	// A signal that has not been consumed yet makes the thread as good as
	// neutralized; real signals are not free, so no second one is sent.
	if !h.r.domain.Pending(other) {
		h.r.domain.Signal(other)
		h.neutralizations.Inc()
	}
	return true
}

// EnterQstate implements core.ReclaimerHandle. A signal that is pending when
// the body finishes is delivered rather than swallowed, so an operation never
// returns a result computed from records that may have been reclaimed behind
// its back (the neutralization-window argument; see the package doc and
// internal/neutralize).
func (h *handle[T]) EnterQstate() {
	h.Checkpoint()
	h.Thread.EnterQstate()
}

// Checkpoint implements core.ReclaimerHandle: deliver a pending signal to a
// non-quiescent thread. Data structure bodies call this once per search-loop
// iteration. Retire contains no checkpoint, and a quiescent thread's Retire
// pins it (epoch.BeginRetire) without one: the retire computes nothing from
// shared records, so there is nothing a neutralization would need to
// discard, and a signal sent while the pin stands is dropped at the owner's
// next LeaveQstate.
func (h *handle[T]) Checkpoint() {
	if !h.IsQuiescent() && h.r.domain.Pending(h.Tid) {
		h.deliver()
	}
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
	if !h.prot.Protect(rec) {
		panic("debra+: RProtect capacity exceeded; raise WithMaxRProtect")
	}
	if h.r.domain.Pending(h.Tid) && !h.IsQuiescent() {
		h.RUnprotectAll()
		h.deliver()
	}
}

// RUnprotectAll implements core.ReclaimerHandle.
func (h *handle[T]) RUnprotectAll() { h.prot.Clear() }

// sweep is the epoch machine's rotation hook (Figure 6, rotateAndReclaim):
// once bag is large enough to amortise a scan of the RProtect table (or
// force is set), detach every record of bag that no thread RProtects; the
// bag keeps the protected ones (at a clean shutdown every table is empty and
// everything drains).
func (h *handle[T]) sweep(bag *blockbag.Bag[T], force bool) *blockbag.Block[T] {
	if !force && bag.LenBlocks() < h.r.cfg.scanThresholdBlks {
		return nil
	}
	h.sweeps.Inc()
	return h.r.table.Sweep(h.Tid, bag)
}

// Stats implements core.Reclaimer.
func (r *Reclaimer[T]) Stats() core.Stats {
	s := r.Bags.Stats()
	for i := range r.handles {
		s.Neutralizations += r.handles[i].neutralizations.Load()
	}
	return s
}

// SelfNeutralizations returns how many times thread tid delivered a signal
// to itself (jumped to recovery); instrumentation for tests.
func (r *Reclaimer[T]) SelfNeutralizations(tid int) int64 {
	return r.handles[tid].selfNeutralized.Load()
}

// TableSweeps returns how many times limbo bags were scanned against the
// RProtect table (instrumentation; core.Stats.Scans counts verification
// passes, as for every epoch scheme).
func (r *Reclaimer[T]) TableSweeps() int64 {
	var n int64
	for i := range r.handles {
		n += r.handles[i].sweeps.Load()
	}
	return n
}

var _ core.Reclaimer[int] = (*Reclaimer[int])(nil)

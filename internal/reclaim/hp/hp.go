// Package hp implements Michael-style hazard pointers (Section 3 of the
// paper, "Hazard Pointers"), the main non-automatic competitor the paper
// evaluates DEBRA and DEBRA+ against.
//
// Before accessing a record (or using its address as the expected value of a
// CAS), a thread must Protect it, which publishes an announcement that other
// threads consult before freeing. Go's sync/atomic operations are
// sequentially consistent, so the announcement store itself provides the
// store-load barrier that the paper identifies as the dominant per-record
// cost of hazard pointers; no additional fence is needed (or possible) here,
// and the cost model therefore matches the original scheme: one fence per
// record visited, versus DEBRA's one announcement per operation.
//
// After announcing, the caller must validate that the record is still
// reachable (for example by re-reading the pointer it was loaded from) and
// restart if not; the Record Manager exposes this through the data
// structure's own validation step, exactly as the paper describes (and with
// the same caveat: for structures whose searches traverse retired records,
// restarting on suspicion forfeits lock-freedom).
//
// The announcements live in a hazard Table: k slots per thread, of which the
// owner reads only the prefix it has used, so a Protect costs the slots in
// use rather than k. Retired records accumulate in a per-thread bag; once the
// bag holds retireThreshold records the thread sweeps it against the table
// (Table.Sweep): it hashes every announced hazard pointer and frees, in one
// block chain, the records that are not announced, giving O(1) expected
// amortised cost per retired record and an O(k·n²) bound on unreclaimed
// garbage. DEBRA+ (internal/reclaim/debraplus) keeps its recovery
// protections in a Table of its own and frees through the same sweep.
package hp

import (
	"repro/internal/blockbag"
	"repro/internal/core"
)

// DefaultSlots is the default number of hazard pointer slots per thread (the
// paper's k). The BST needs a handful for its search path and helping; the
// skip list protects its whole predecessor/successor arrays (up to two per
// level), so the default leaves room for both.
const DefaultSlots = 48

// Option configures the reclaimer.
type Option func(*config)

type config struct {
	slots           int
	retireThreshold int
}

// WithSlots sets the number of hazard pointer slots per thread.
func WithSlots(k int) Option { return func(c *config) { c.slots = k } }

// WithRetireThreshold sets the number of retired records a thread
// accumulates before scanning hazard pointers. The default is
// 2·n·k + BlockSize, which makes each scan free Omega(n·k) records (the
// paper's tuning for performance rather than space).
func WithRetireThreshold(v int) Option { return func(c *config) { c.retireThreshold = v } }

// Reclaimer implements core.Reclaimer with hazard pointers.
type Reclaimer[T any] struct {
	sink  core.FreeSink[T]
	cfg   config
	occ   *core.Occupancy
	table *Table[T]

	handles []handle[T]
}

// handle is one thread slot's view (core.ReclaimerHandle): the slot's row of
// the hazard table and its retire bag, resolved once, so a Protect — hazard
// pointers' per-record hot path — indexes no per-thread slices.
type handle[T any] struct {
	r         *Reclaimer[T]
	slots     *Slots[T]
	retireBag *blockbag.Bag[T]
	tid       int

	// Single-writer statistics counters (core.Counter): written by the
	// owning tid (or the quiescent-shutdown drainer), read racily by Stats.
	retired core.Counter
	freed   core.Counter
	scans   core.Counter

	_ [core.PadBytes]byte
}

// New creates a hazard pointer reclaimer for n threads; reclaimed records
// are handed to sink.
func New[T any](n int, sink core.FreeSink[T], opts ...Option) *Reclaimer[T] {
	if n <= 0 {
		panic("hp: New requires n >= 1")
	}
	if sink == nil {
		panic("hp: New requires a FreeSink")
	}
	cfg := config{slots: DefaultSlots}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.slots < 1 {
		cfg.slots = 1
	}
	if cfg.retireThreshold <= 0 {
		cfg.retireThreshold = 2*n*cfg.slots + blockbag.BlockSize
	}
	occ := core.NewOccupancy(n)
	r := &Reclaimer[T]{
		sink:    sink,
		cfg:     cfg,
		occ:     occ,
		table:   NewTable[T](n, cfg.slots, occ),
		handles: make([]handle[T], n),
	}
	for i := range r.handles {
		// The retire bag draws from the block pool the sink empties the
		// freed blocks into, so blocks circulate without being reallocated.
		r.handles[i] = handle[T]{r: r, slots: r.table.Slots(i), retireBag: blockbag.New(sink.BlockPool(i)), tid: i}
	}
	return r
}

// Handle implements core.Reclaimer.
func (r *Reclaimer[T]) Handle(tid int) core.ReclaimerHandle[T] { return &r.handles[tid] }

// Name implements core.Reclaimer.
func (r *Reclaimer[T]) Name() string { return "hp" }

// Props implements core.Reclaimer.
func (r *Reclaimer[T]) Props() core.Properties {
	return core.Properties{
		Scheme:               "HP",
		ModPerAccessedRecord: true,
		ModPerRetiredRecord:  true,
		ModOther:             "recovery code for failed hazard pointer acquisition",
		Termination:          core.ProgressWaitFree,
		FaultTolerant:        true,
		BoundedGarbage:       true,
		// Hazard pointers cannot be used (without losing lock-freedom) by
		// data structures whose operations traverse pointers from retired
		// records to other retired records.
		TraverseRetiredToRetired: false,
		PerRecordProtection:      true,
	}
}

// LeaveQstate implements core.ReclaimerHandle (nothing to do for HP).
func (h *handle[T]) LeaveQstate() {}

// EnterQstate implements core.ReclaimerHandle: release every hazard pointer
// held by the thread.
func (h *handle[T]) EnterQstate() { h.slots.Clear() }

// IsQuiescent implements core.ReclaimerHandle. Hazard pointers have no notion
// of quiescence; a thread is "quiescent" when it holds no announcements.
func (h *handle[T]) IsQuiescent() bool { return h.slots.Empty() }

// Protect implements core.ReclaimerHandle: announce a hazard pointer to rec.
// The caller must validate reachability afterwards.
func (h *handle[T]) Protect(rec *T) {
	if rec != nil && !h.slots.Protect(rec) {
		panic("hp: out of hazard pointer slots; raise WithSlots")
	}
}

// Unprotect implements core.ReclaimerHandle: release the hazard pointer to
// rec.
func (h *handle[T]) Unprotect(rec *T) {
	if rec != nil {
		h.slots.Unprotect(rec)
	}
}

// RProtect implements core.ReclaimerHandle (no crash recovery for HP; no-op).
func (h *handle[T]) RProtect(rec *T) {}

// RUnprotectAll implements core.ReclaimerHandle (no-op).
func (h *handle[T]) RUnprotectAll() {}

// Checkpoint implements core.ReclaimerHandle (no-op).
func (h *handle[T]) Checkpoint() {}

// Retire implements core.ReclaimerHandle: buffer the record and scan once the
// buffer is large enough to amortise the cost.
func (h *handle[T]) Retire(rec *T) {
	if rec == nil {
		panic("hp: Retire(nil)")
	}
	h.retireBag.Add(rec)
	h.retired.Inc()
	if h.retireBag.Len() >= h.r.cfg.retireThreshold {
		h.scan()
	}
}

// Occupancy implements core.Reclaimer: the scan skips the slot arrays of
// vacant (unowned, hence announcement-free) threads.
func (r *Reclaimer[T]) Occupancy() *core.Occupancy { return r.occ }

// scan sweeps the thread's retire bag against the hazard table: it frees, in
// one chain, every record that no hazard pointer announces and keeps the
// announced ones for a later scan, and returns the number freed. This is
// Michael's amortised scheme: the scan costs O(R + nk) for R retired records
// but frees Omega(R - nk) of them.
func (h *handle[T]) scan() int64 {
	h.scans.Inc()
	n := int64(h.retireBag.Len())
	if chain := h.r.table.Sweep(h.tid, h.retireBag); chain != nil {
		h.r.sink.FreeBlocks(h.tid, chain)
	}
	n -= int64(h.retireBag.Len())
	h.freed.Add(n)
	return n
}

// DrainLimbo implements core.Reclaimer: run a forced scan for every
// thread's retire bag, regardless of the amortisation threshold, freeing
// every record that no hazard pointer announces. The retire bags are
// single-owner, so this may only run on shutdown paths after the worker
// goroutines are joined; the announced side of that precondition — every
// hazard slot released, which EnterQstate guarantees for a cleanly finished
// worker — is verified and violations panic, like the epoch schemes'
// drains. (A held slot would not make the free unsafe, but it reveals a
// worker that may still be mid-operation and racing its own bag.)
func (r *Reclaimer[T]) DrainLimbo(tid int) int64 {
	for i := range r.handles {
		if !r.handles[i].IsQuiescent() {
			panic("hp: DrainLimbo while a thread still holds hazard pointers")
		}
	}
	var total int64
	for i := range r.handles {
		total += r.handles[i].scan()
	}
	return total
}

// Stats implements core.Reclaimer.
func (r *Reclaimer[T]) Stats() core.Stats {
	var s core.Stats
	for i := range r.handles {
		t := &r.handles[i]
		s.Retired += t.retired.Load()
		s.Freed += t.freed.Load()
		s.Scans += t.scans.Load()
	}
	s.Limbo = s.Retired - s.Freed
	return s
}

var _ core.Reclaimer[int] = (*Reclaimer[int])(nil)

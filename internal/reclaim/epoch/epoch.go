// Package epoch is the one epoch machine the four epoch schemes are policies
// on. It owns the three decisions every such scheme makes the same way:
//
//   - the announcement word: one padded slot per thread holding the epoch
//     the thread last announced, with bit 0 set while the thread is quiescent;
//   - verification: a thread may move the epoch from e once every other
//     thread has been seen quiescent or announcing e. A pass reads the
//     announcements in slot order. Vacant slots are quiescent by the release
//     contract and are never read (or, under debra+, signalled);
//   - the private limbo: three block bags per thread, tagged by epoch. A
//     retire files under the epoch it reads. A thread that completes a
//     verification pass for the epoch it announces frees whole the bag
//     tagged one epoch before it, and a rotation to a new epoch frees every
//     bag tagged two or more epochs before it. So a record waits for one
//     advance and a pass after the epoch its operation announced, or two
//     advances when the epoch moved on under the operation before the
//     retire (debra+ files every retire that way, frees only by rotating
//     one bag per epoch observed, and its Sweep frees every record of the
//     bag that no recovery protection covers).
//
// A policy decides where the pass runs, how much of it runs per operation
// and when a thread whose pass is complete tries to advance the epoch.
// debra tries every INCR_THRESH operations, or sooner once its current limbo
// bag holds 16 records, so a running debra thread holds about 32 records
// plus one pass's retires in limbo whatever it retires per operation;
// debra+ is paced by INCR_THRESH alone. docs/ARCHITECTURE.md ("The epoch
// schemes") has the table.
package epoch

import (
	"math"
	"sync/atomic"

	"repro/internal/blockbag"
	"repro/internal/core"
)

const (
	// Inc is the epoch step: bit 0 of an announcement is the quiescent flag,
	// so epochs are even.
	Inc = 2

	quiescentBit = 1

	// The paper's pacing for DEBRA's incremental scan.
	defaultCheckThresh = 1
	defaultIncrThresh  = 100
)

// All is a Verify budget no pass exhausts.
const All = math.MaxInt

// Config is what the options set, normalised by New.
type Config struct {
	// CheckThresh and IncrThresh pace the incremental scan (debra, debra+).
	CheckThresh, IncrThresh int64
	// Policy holds the settings of the one policy package that has its own
	// options (debra+); nil for the others.
	Policy any
}

// Option configures an epoch scheme.
type Option func(*Config)

// WithCheckThresh sets how many operations pass between checks of the
// incremental scan (the paper's CHECK_THRESH, there to space out cross-socket
// reads).
func WithCheckThresh(v int) Option { return func(c *Config) { c.CheckThresh = int64(v) } }

// WithIncrThresh sets the number of operations after announcing an epoch at
// which a thread whose pass is complete tries to advance it (the paper's
// INCR_THRESH). debra tries sooner once its current limbo bag is big enough;
// debra+ waits for INCR_THRESH.
func WithIncrThresh(v int) Option { return func(c *Config) { c.IncrThresh = int64(v) } }

// word is an announcement on its own cache lines: written by its owner, read
// by every verifier.
type word struct {
	v atomic.Int64
	_ [core.PadBytes]byte
}

// Domain is the shared half of an epoch scheme: the epoch and the
// announcements. Scheme objects embed it.
type Domain[T any] struct {
	// Config is the normalised configuration the domain was built with.
	Config Config

	name string
	sink core.FreeSink[T]

	epoch   atomic.Int64
	occ     *core.Occupancy
	slots   []word
	threads []*Thread[T]
}

// New builds the domain of scheme name for n threads freeing into sink.
func New[T any](name string, n int, sink core.FreeSink[T], opts []Option) *Domain[T] {
	if n <= 0 {
		panic(name + ": New requires n >= 1")
	}
	if sink == nil {
		panic(name + ": New requires a FreeSink")
	}
	cfg := Config{CheckThresh: defaultCheckThresh, IncrThresh: defaultIncrThresh}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.CheckThresh = max(cfg.CheckThresh, 1)
	cfg.IncrThresh = max(cfg.IncrThresh, 1)
	d := &Domain[T]{
		Config:  cfg,
		name:    name,
		sink:    sink,
		occ:     core.NewOccupancy(n),
		slots:   make([]word, n),
		threads: make([]*Thread[T], n),
	}
	d.epoch.Store(Inc)
	for i := range d.slots {
		// Quiescent, at an epoch that never was: the first announcement
		// observes a new epoch, and nobody waits for the slot until then.
		d.slots[i].v.Store(quiescentBit)
	}
	return d
}

// Bind makes t slot tid's thread. Every slot is bound once, before use.
func (d *Domain[T]) Bind(tid int, t *Thread[T]) {
	t.Tid = tid
	t.d = d
	t.ann = &d.slots[tid].v
	d.threads[tid] = t
}

// Name implements core.Reclaimer.
func (d *Domain[T]) Name() string { return d.name }

// Occupancy implements core.Reclaimer.
func (d *Domain[T]) Occupancy() *core.Occupancy { return d.occ }

// Epoch returns the current epoch (instrumentation).
func (d *Domain[T]) Epoch() int64 { return d.epoch.Load() }

// RequireAllQuiescent panics unless every thread is quiescent, the announced
// half of DrainLimbo's precondition (references are the caller's contract).
func (d *Domain[T]) RequireAllQuiescent() {
	for i := range d.slots {
		if d.slots[i].v.Load()&quiescentBit == 0 {
			panic(d.name + ": DrainLimbo while a thread is still non-quiescent")
		}
	}
}

// Stats implements core.Reclaimer. Scans counts completed verification
// passes (see Thread.Verify); the epoch itself counts its advances.
func (d *Domain[T]) Stats() core.Stats {
	s := core.Stats{EpochAdvances: d.epoch.Load()/Inc - 1}
	for _, t := range d.threads {
		s.Retired += t.Retired.Load()
		s.Freed += t.freed.Load()
		s.Scans += t.scans.Load()
	}
	s.Limbo = s.Retired - s.Freed
	return s
}

// Thread is one slot's half of the machine: its announcement and its
// counters. Scheme handles embed it (through Limbo when the scheme keeps
// private bags) in a struct that ends in core.PadBytes of padding, because
// the counters and the embedding policy's cursor are written on every
// operation.
type Thread[T any] struct {
	NoProtect[T]

	// Tid is the slot the thread is bound to.
	Tid int
	// Suspect, when non-nil, is consulted about a member that fails
	// verification: true means the member may be counted as quiescent
	// anyway (debra+ has signalled it).
	Suspect func(other int) bool
	// Retired counts the records the thread retired (single-writer; a scheme
	// that files retires in bags of its own adds to it itself).
	Retired core.Counter

	d   *Domain[T]
	ann *atomic.Int64

	freed, scans core.Counter
}

// Epoch returns the current epoch.
func (t *Thread[T]) Epoch() int64 { return t.d.epoch.Load() }

// Announce publishes that the thread is inside an operation that began at
// epoch e, and reports whether that is a new epoch to the thread.
func (t *Thread[T]) Announce(e int64) bool {
	fresh := t.ann.Load()&^quiescentBit != e
	t.ann.Store(e)
	return fresh
}

// Quiesce publishes that the thread passed a quiescent state at epoch e and
// is now between operations.
func (t *Thread[T]) Quiesce(e int64) { t.ann.Store(e | quiescentBit) }

// EnterQstate implements core.ReclaimerHandle: set the quiescent bit, keep
// the announced epoch.
func (t *Thread[T]) EnterQstate() { t.ann.Store(t.ann.Load() | quiescentBit) }

// IsQuiescent implements core.ReclaimerHandle.
func (t *Thread[T]) IsQuiescent() bool { return t.ann.Load()&quiescentBit != 0 }

// BeginRetire is the first half of every Retire: it panics when rec is nil,
// and pins a quiescent thread for the retire. The pin clears the quiescent
// bit and keeps the epoch the thread announced, with none of an operation's
// verification or rotation; BeginRetire returns what EndRetire restores: the
// quiescent announcement, or 0 inside an operation. Safety does not rest on
// the pin. A retire files rec under an epoch it loads after rec was unlinked,
// and a bag goes to the sink only once some pass has verified an epoch after
// its tag, which no thread that can still reach rec passes (Limbo); the
// retirer's own announcement bounds none of that. The pin stays until the
// reclamation monitor (ROADMAP.md), which checks every free against the rule
// that allowed it, shows whether anything relies on it.
func (t *Thread[T]) BeginRetire(rec *T) int64 {
	if rec == nil {
		panic(t.d.name + ": Retire(nil)")
	}
	a := t.ann.Load()
	if a&quiescentBit == 0 {
		return 0
	}
	t.ann.Store(a &^ quiescentBit)
	return a
}

// EndRetire sets the quiescent bit again when BeginRetire cleared it. The
// records retired under the pin wait in limbo for the owner's next
// operations, or for DrainLimbo.
func (t *Thread[T]) EndRetire(a int64) {
	if a != 0 {
		t.ann.Store(a)
	}
}

// Free hands a detached block chain to the sink and returns the number of
// records in it.
func (t *Thread[T]) Free(chain *blockbag.Block[T]) int64 {
	if chain == nil {
		return 0
	}
	n := int64(blockbag.ChainLen(chain))
	t.d.sink.FreeBlocks(t.Tid, chain)
	t.freed.Add(n)
	return n
}

// PassLen is the position at which a verification pass is complete: the
// number of slots.
func (t *Thread[T]) PassLen() int { return len(t.d.slots) }

// Verify resumes the thread's verification pass for epoch e at slot pos and
// returns the slot reached after at most budget checks, stopping at the first
// check that fails. Reaching PassLen means every thread has been seen
// quiescent or at e, and counts as one scan. A pass that starts over at 0
// every operation and one that keeps its position across operations of the
// same epoch are both sound: for a fixed e, a thread once seen passing cannot
// come to hold a reference older than e.
func (t *Thread[T]) Verify(pos int, e int64, budget int) int {
	d := t.d
	n := len(d.slots)
	if live := d.occ.Live(); live == 0 || live == 1 {
		// The thread is the only occupant: the rest are vacant.
		pos = n
	}
	for ; pos < n; pos++ {
		if !d.occ.Occupied(pos) {
			// Skipping vacant slots for free keeps an incremental pass
			// proportional to the live threads, not the slot capacity.
			continue
		}
		if budget == 0 {
			return pos
		}
		budget--
		if !t.passes(pos, e) {
			return pos
		}
	}
	t.scans.Inc()
	return pos
}

// passes reports whether member m does not hold epoch e back.
func (t *Thread[T]) passes(m int, e int64) bool {
	a := t.d.slots[m].v.Load()
	return a&quiescentBit != 0 || a&^quiescentBit == e || (t.Suspect != nil && t.Suspect(m))
}

// Advance moves the epoch on from e, which the caller has verified, and
// reports whether this thread's attempt was the one that did.
func (t *Thread[T]) Advance(e int64) bool { return t.d.epoch.CompareAndSwap(e, e+Inc) }

// NoProtect is the five per-record calls of core.ReclaimerHandle for a
// scheme that protects by epoch: they do nothing (data structures skip them
// altogether when Props().PerRecordProtection is false).
type NoProtect[T any] struct{}

// Protect implements core.ReclaimerHandle.
func (NoProtect[T]) Protect(*T) {}

// Unprotect implements core.ReclaimerHandle.
func (NoProtect[T]) Unprotect(*T) {}

// RProtect implements core.ReclaimerHandle.
func (NoProtect[T]) RProtect(*T) {}

// RUnprotectAll implements core.ReclaimerHandle.
func (NoProtect[T]) RUnprotectAll() {}

// Checkpoint implements core.ReclaimerHandle.
func (NoProtect[T]) Checkpoint() {}

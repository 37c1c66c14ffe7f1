package bst

import (
	"math"

	"repro/internal/core"
	"repro/internal/neutralize"
)

// Sentinel keys: user keys must be strictly smaller than Infinity1.
const (
	// Infinity2 is the key of the root and of the right sentinel leaf.
	Infinity2 = math.MaxInt64
	// Infinity1 is the key of the left sentinel leaf; the largest key any
	// user-supplied key must stay below.
	Infinity1 = math.MaxInt64 - 1
)

// Tree is a lock-free external binary search tree storing int64 keys and
// values of type V. Operations are issued through a Handle a goroutine
// acquires with AcquireHandle.
type Tree[V any] struct {
	mgr  *Manager[V]
	root *Record[V]

	// perRecord caches whether the reclaimer needs Protect/validate per
	// record (hazard-pointer style schemes).
	perRecord bool
	// crashRecovery caches whether the reclaimer neutralizes threads and
	// therefore requires the recovery path (DEBRA+).
	crashRecovery bool

	// visit, when non-nil, is called for every node the search path has
	// made safe to access (set before concurrent use; see SetVisitHook).
	visit func(tid int, r *Record[V])

	threads []threadState[V]
}

// SetVisitHook installs fn to be called for every node the search path has
// made safe to access (after protection and validation under per-record
// schemes). It exists for the reclaimtest safety harness; it must be set
// before any concurrent use of the tree. For neutralizing schemes (DEBRA+)
// the hook must discard observations made with a signal pending (see the
// scheme's Domain.Pending): they belong to a doomed attempt whose
// observations are thrown away.
func (t *Tree[V]) SetVisitHook(fn func(tid int, r *Record[V])) { t.visit = fn }

func (t *Tree[V]) observe(tid int, r *Record[V]) {
	if t.visit != nil {
		t.visit(tid, r)
	}
}

// threadState is one worker slot's state, padded so neighbouring slots do
// not share cache lines: the slot's operation descriptor (written by the
// slot, read by helpers), the data-structure-level counters (core.Counter
// contract: written only by the owning slot, read racily by Stats) and the
// slot's parked scratch records.
type threadState[V any] struct {
	desc descriptor[V]

	restarts core.Counter // operation restarts (CAS failures, HP validation failures)
	helps    core.Counter // help calls on other slots' operations
	recov    core.Counter // recovery executions after neutralization

	// scratch[:parked] are allocated records an Insert obtained in its
	// quiescent preamble and did not publish (the key was present). The
	// slot's next Insert takes them instead of paying Allocate+Deallocate
	// per call; ReleaseHandle hands them back.
	scratch [3]*Record[V]
	parked  int

	_ [core.PadBytes]byte
}

// Stats is a snapshot of the tree's operation counters.
type Stats struct {
	Restarts   int64
	Helps      int64
	Recoveries int64
}

// New creates an empty tree whose records are managed by mgr.
func New[V any](mgr *Manager[V]) *Tree[V] {
	if mgr == nil {
		panic("bst: New requires a RecordManager")
	}
	slots := mgr.WorkerSlots()
	if slots > maxSlots {
		panic("bst: New supports at most 65536 worker slots")
	}
	t := &Tree[V]{
		mgr:           mgr,
		perRecord:     mgr.NeedsPerRecordProtection(),
		crashRecovery: mgr.SupportsCrashRecovery(),
		threads:       make([]threadState[V], slots),
	}
	for i := range t.threads {
		// Seq 0 of every slot: an id no operation uses.
		t.threads[i].desc.id.Store(uint64(i) << stateBits)
	}
	// The initial tree: a root with key Infinity2 whose children are the
	// two sentinel leaves. These records are never retired, so they come
	// straight from the allocator (slot 0, before any goroutine holds it).
	var zero V
	alloc := mgr.Allocator()
	left := initLeaf(alloc.Allocate(0), Infinity1, zero)
	right := initLeaf(alloc.Allocate(0), Infinity2, zero)
	t.root = initInternal(alloc.Allocate(0), Infinity2, left, right, 0)
	return t
}

// Manager returns the tree's Record Manager (for instrumentation).
func (t *Tree[V]) Manager() *Manager[V] { return t.mgr }

// Handle is one worker slot's view of the tree and the only way to operate
// on it: the Record Manager thread handle and the slot's scratch state bound
// at AcquireHandle, so steady-state operations index no per-thread slices
// and pay at most one interface call per reclamation primitive. It is a small
// value type — acquire it once per goroutine and reuse it.
type Handle[V any] struct {
	t   *Tree[V]
	rm  *core.ThreadHandle[Record[V]]
	st  *threadState[V]
	tid int
}

// AcquireHandle binds the calling goroutine to a vacant worker slot of the
// tree's Record Manager and returns the slot's operation handle; release it
// with ReleaseHandle.
func (t *Tree[V]) AcquireHandle() Handle[V] {
	rm := t.mgr.AcquireHandle()
	return Handle[V]{t: t, rm: rm, st: &t.threads[rm.Tid()], tid: rm.Tid()}
}

// ReleaseHandle returns an acquired slot to the manager's registry. The
// calling goroutine must be quiescent (between operations) and must not use
// the handle afterwards. The slot's parked scratch records go back to the
// pool first, so a goroutine that comes and goes strands nothing.
func (t *Tree[V]) ReleaseHandle(hd Handle[V]) {
	st := hd.st
	for i, r := range st.scratch[:st.parked] {
		hd.rm.Deallocate(r)
		st.scratch[i] = nil
	}
	st.parked = 0
	t.mgr.ReleaseHandle(hd.rm)
}

// scratch returns an unpublished record for an update's quiescent preamble:
// one the slot parked, else a fresh allocation.
func (hd Handle[V]) scratch() *Record[V] {
	st := hd.st
	if st.parked == 0 {
		return hd.rm.Allocate()
	}
	st.parked--
	r := st.scratch[st.parked]
	st.scratch[st.parked] = nil
	return r
}

// park keeps an update's unpublished record for the slot's next update.
func (hd Handle[V]) park(r *Record[V]) {
	st := hd.st
	st.scratch[st.parked] = r
	st.parked++
}

// Tid returns the dense thread id the handle is bound to.
func (hd Handle[V]) Tid() int { return hd.tid }

// Tree returns the tree the handle operates on.
func (hd Handle[V]) Tree() *Tree[V] { return hd.t }

// Stats returns a snapshot of the tree's operation counters, aggregated
// from the per-thread single-writer cells (exact when the workers are
// quiescent).
func (t *Tree[V]) Stats() Stats {
	var s Stats
	for i := range t.threads {
		st := &t.threads[i]
		s.Restarts += st.restarts.Load()
		s.Helps += st.helps.Load()
		s.Recoveries += st.recov.Load()
	}
	return s
}

// searchResult carries the outcome of one tree search: the leaf, its parent
// and grandparent, and the update words observed at the parent and
// grandparent.
type searchResult[V any] struct {
	gp, p, l          *Record[V]
	pupdate, gpupdate uint64
	ok                bool // false: protection validation failed, restart
}

// child returns p's child on the side key routes to.
func child[V any](p *Record[V], key int64) *Record[V] {
	if key < p.key {
		return p.left.Load()
	}
	return p.right.Load()
}

// search descends from the root to the leaf where key belongs, returning the
// leaf, its parent and grandparent together with the update words read at
// the parent and grandparent (the standard Ellen et al. search). Under
// per-record protection schemes it maintains hazard pointers on gp, p and l,
// validating each step and reporting ok=false when the caller must restart;
// it returns with its hazard pointers held either way, and the caller's
// EnterQstate drops them all. Such a search never steps out of a marked
// node, so HP on this tree is safe but not lock-free: a deleter stalled
// between its mark and its unlink blocks every search through that node, as
// it already blocks the updates there, which back off rather than help.
// The update words need no protection: they are values, and a word never
// recurs, so a stale one fails any CAS that expects it.
func (t *Tree[V]) search(hd Handle[V], key int64) searchResult[V] {
	rm := hd.rm
	var res searchResult[V]
	var gp, p *Record[V]
	var gpupdate, pupdate uint64
	l := t.root
	if t.perRecord {
		//lint:allow protectorder the root sentinel is never retired, so the announcement needs no re-validation
		rm.Protect(l)
	}
	for !l.IsLeaf() {
		rm.Checkpoint()
		if t.perRecord && gp != nil {
			// gp is about to become unreachable from our working set.
			rm.Unprotect(gp)
		}
		gp = p
		gpupdate = pupdate
		p = l
		pupdate = p.update.Load()
		l = child(p, key)
		if l == nil || (t.perRecord && p.Kind() != KindInternal) {
			// p is no longer the internal node the search stepped onto: it
			// was recycled as a leaf, whose child slots are nil or about to
			// be. Can only happen if protection failed; restart.
			res.ok = false
			return res
		}
		if t.perRecord {
			if wordState(pupdate) == stateMark {
				// p is being deleted and its child pointers are frozen: l
				// may be the leaf the delete retires, so no check below
				// could prove the protection of l in time. Restart.
				res.ok = false
				return res
			}
			rm.Protect(l)
			if child(p, key) != l {
				// p's child changed under us: l may already be retired.
				res.ok = false
				return res
			}
			if p.update.Load() != pupdate {
				// A deleted internal node keeps its stale child pointers, so
				// the check above alone cannot prove l is still reachable.
				// But removal marks p first (its update word moves to a mark
				// word and never moves back), so p's update still holding the
				// unmarked word read before l was loaded proves p was
				// unmarked — and therefore still in the tree — when
				// child(p) == l held, which makes the protection announcement
				// in time. Restart when it moved.
				res.ok = false
				return res
			}
		}
		t.observe(hd.tid, l)
	}
	res.gp, res.p, res.l = gp, p, l
	res.pupdate, res.gpupdate = pupdate, gpupdate
	res.ok = true
	return res
}

// Get returns the value associated with key and whether it is present.
func (hd Handle[V]) Get(key int64) (V, bool) {
	t := hd.t
	var zero V
	if key >= Infinity1 {
		return zero, false
	}
	for {
		v, ok, done := t.getAttempt(hd, key)
		if done {
			return v, ok
		}
		hd.st.restarts.Inc()
	}
}

// getAttempt performs one attempt of Get. done=false means restart (hazard
// pointer validation failed or the attempt was neutralized).
func (t *Tree[V]) getAttempt(hd Handle[V], key int64) (val V, found, done bool) {
	rm := hd.rm
	if t.crashRecovery {
		defer func() {
			if v := recover(); v != nil {
				if _, ok := neutralize.Recover(v); ok {
					// Read-only operations have trivial recovery: discard
					// and retry.
					hd.st.recov.Inc()
					rm.RUnprotectAll()
					done = false
					return
				}
			}
		}()
	}
	rm.LeaveQstate()
	res := t.search(hd, key)
	if !res.ok {
		rm.EnterQstate()
		return val, false, false
	}
	found = res.l.key == key
	if found {
		val = res.l.value
	}
	rm.EnterQstate()
	return val, found, true
}

// Contains reports whether key is in the set.
func (hd Handle[V]) Contains(key int64) bool {
	_, ok := hd.Get(key)
	return ok
}

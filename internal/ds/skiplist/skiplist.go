// Package skiplist implements a lock-based lazy skip list (Herlihy, Lev,
// Luchangco and Shavit's LazySkipList) with lock-free, wait-free searches,
// programmed against the Record Manager abstraction. It is the second data
// structure of the paper's evaluation: because its updates take locks it can
// use None, HP, DEBRA (and the StackTrack baseline), but not DEBRA+ —
// interrupting a lock holder with a neutralization signal is not safe, which
// is exactly the limitation the paper notes for lock-based structures.
//
// Reclamation-relevant behaviour matches the paper's discussion: searches
// are lock-free and may traverse marked (logically deleted) and even
// physically unlinked nodes, so a correct reclamation scheme is required for
// nodes removed by Delete.
package skiplist

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// MaxLevel is the maximum number of levels of the skip list (supports key
// ranges far beyond the paper's 2*10^5 experiment).
const MaxLevel = 20

// pFactor is the probability denominator for promoting a node one level.
const pFactor = 2

// Sentinel keys: user keys must lie strictly between them.
const (
	headKey = -1 << 63
	tailKey = 1<<63 - 1
)

// Node is the skip list's managed record type.
type Node[V any] struct {
	key   int64
	value V

	next     [MaxLevel]atomic.Pointer[Node[V]]
	topLevel int32

	mu          sync.Mutex
	marked      atomic.Bool
	fullyLinked atomic.Bool

	// poisoned is test instrumentation for the reclaimtest poison-sink
	// harness (see the hash map's Node for the contract); nothing on the
	// list's hot path reads it.
	poisoned atomic.Bool
}

// Poison implements the reclaimtest Poisonable contract: mark the record as
// freed, reporting whether it already was (a double free).
func (n *Node[V]) Poison() bool { return n.poisoned.Swap(true) }

// Unpoison clears the freed mark (called by pool wrappers on reuse).
func (n *Node[V]) Unpoison() { n.poisoned.Store(false) }

// IsPoisoned reports whether the record is currently marked freed.
func (n *Node[V]) IsPoisoned() bool { return n.poisoned.Load() }

// Key returns the node's key.
func (n *Node[V]) Key() int64 { return n.key }

// Value returns the node's value.
func (n *Node[V]) Value() V { return n.value }

// Manager is the Record Manager type the skip list programs against.
type Manager[V any] = core.RecordManager[Node[V]]

// List is a concurrent ordered set of int64 keys with values of type V.
type List[V any] struct {
	mgr  *Manager[V]
	head *Node[V]
	tail *Node[V]

	perRecord bool

	seeds   []seedState
	handles []Handle[V]

	// visit, when non-nil, is called for every node a traversal has made
	// safe to access (set before concurrent use; see SetVisitHook).
	visit func(tid int, n *Node[V])
}

// SetVisitHook installs fn to be called for every node a traversal has made
// safe to access (after protection and validation under per-record schemes).
// It exists for the reclaimtest safety harness; it must be set before any
// concurrent use of the list.
func (l *List[V]) SetVisitHook(fn func(tid int, n *Node[V])) { l.visit = fn }

func (l *List[V]) observe(tid int, n *Node[V]) {
	if l.visit != nil {
		l.visit(tid, n)
	}
}

// seedState is a per-thread pseudo random generator used to pick node
// heights without contention or locking.
type seedState struct {
	rng *rand.Rand
	_   [core.PadBytes]byte
}

// New creates an empty skip list for the given Record Manager and number of
// worker threads. When the manager has more worker slots than threads
// (recordmgr.Config.MaxThreads), the per-slot tables cover every slot.
func New[V any](mgr *Manager[V], threads int) *List[V] {
	if mgr == nil {
		panic("skiplist: New requires a RecordManager")
	}
	if threads <= 0 {
		panic("skiplist: New requires threads >= 1")
	}
	if ws := mgr.WorkerSlots(); ws > threads {
		threads = ws
	}
	if mgr.SupportsCrashRecovery() {
		panic("skiplist: lock-based updates cannot be used with a neutralizing reclaimer (DEBRA+); use DEBRA or HP")
	}
	l := &List[V]{mgr: mgr, perRecord: mgr.NeedsPerRecordProtection()}
	// The sentinels are never retired, so they come straight from the
	// allocator (slot 0, before any goroutine holds it).
	var zero V
	l.head = mgr.Allocator().Allocate(0)
	l.tail = mgr.Allocator().Allocate(0)
	initNode(l.head, headKey, zero, MaxLevel-1)
	initNode(l.tail, tailKey, zero, MaxLevel-1)
	l.head.fullyLinked.Store(true)
	l.tail.fullyLinked.Store(true)
	for i := 0; i < MaxLevel; i++ {
		l.head.next[i].Store(l.tail)
	}
	l.seeds = make([]seedState, threads)
	for i := range l.seeds {
		l.seeds[i].rng = rand.New(rand.NewSource(int64(i)*2654435761 + 1))
	}
	l.handles = make([]Handle[V], threads)
	return l
}

// Handle is one worker slot's view of the list and the only way to operate on
// it: the Record Manager thread handle and the slot's level generator bound
// at AcquireHandle, so steady-state operations index no per-thread slices and
// pay at most one interface call per reclamation primitive.
type Handle[V any] struct {
	l    *List[V]
	rm   *core.ThreadHandle[Node[V]]
	seed *seedState
	tid  int
}

// AcquireHandle binds the calling goroutine to a vacant worker slot of the
// list's Record Manager and returns the slot's operation handle; release it
// with ReleaseHandle.
func (l *List[V]) AcquireHandle() *Handle[V] {
	rm := l.mgr.AcquireHandle()
	tid := rm.Tid()
	l.handles[tid] = Handle[V]{l: l, rm: rm, seed: &l.seeds[tid], tid: tid}
	return &l.handles[tid]
}

// ReleaseHandle returns an acquired slot to the manager's registry. The
// calling goroutine must be quiescent (between operations) and must not use
// the handle afterwards.
func (l *List[V]) ReleaseHandle(hd *Handle[V]) { l.mgr.ReleaseHandle(hd.rm) }

// Tid returns the dense thread id the handle is bound to.
func (hd *Handle[V]) Tid() int { return hd.tid }

// List returns the list the handle operates on.
func (hd *Handle[V]) List() *List[V] { return hd.l }

// initNode (re)initialises a recycled record as a fresh node.
func initNode[V any](n *Node[V], key int64, value V, topLevel int32) {
	n.key = key
	n.value = value
	n.topLevel = topLevel
	n.marked.Store(false)
	n.fullyLinked.Store(false)
	for i := range n.next {
		n.next[i].Store(nil)
	}
}

// Manager returns the list's Record Manager.
func (l *List[V]) Manager() *Manager[V] { return l.mgr }

// randomLevel picks a node height with geometric distribution.
func (hd *Handle[V]) randomLevel() int32 {
	lvl := int32(0)
	rng := hd.seed.rng
	for lvl < MaxLevel-1 && rng.Intn(pFactor) == 0 {
		lvl++
	}
	return lvl
}

// find locates key's predecessors and successors at every level. It returns
// the level at which a node with the key was found (or -1) and ok=false when
// a per-record protection validation failed and the operation must restart.
// Under per-record protection every recorded predecessor and successor is
// left protected; the caller releases them via EnterQstate / Unprotect.
func (l *List[V]) find(hd *Handle[V], key int64, preds, succs *[MaxLevel]*Node[V]) (foundLevel int, ok bool) {
	rm := hd.rm
	foundLevel = -1
	pred := l.head
	for level := MaxLevel - 1; level >= 0; level-- {
		curr := pred.next[level].Load()
		for {
			if curr == nil {
				// Only reachable when a protection race let pred be recycled
				// under us (initNode resets its next pointers to nil while we
				// traverse): the traversal is broken, restart the operation.
				return -1, false
			}
			if l.perRecord {
				rm.Protect(curr)
				if pred.next[level].Load() != curr {
					// pred's successor changed: curr may already be retired.
					rm.Unprotect(curr)
					return -1, false
				}
			}
			l.observe(hd.tid, curr)
			if curr.key < key {
				if l.perRecord && pred != l.head && !l.isRecorded(pred, preds, succs, level) {
					rm.Unprotect(pred)
				}
				pred = curr
				curr = pred.next[level].Load()
				continue
			}
			break
		}
		if foundLevel == -1 && curr.key == key {
			foundLevel = level
		}
		preds[level] = pred
		succs[level] = curr
	}
	return foundLevel, true
}

// isRecorded reports whether node is already stored in preds/succs at a
// level above the given one (in which case its protection must be kept).
func (l *List[V]) isRecorded(node *Node[V], preds, succs *[MaxLevel]*Node[V], above int) bool {
	for lvl := above; lvl < MaxLevel; lvl++ {
		if preds[lvl] == node || succs[lvl] == node {
			return true
		}
	}
	return false
}

// Contains reports whether key is present (wait-free, lock-free reads).
func (hd *Handle[V]) Contains(key int64) bool {
	_, ok := hd.Get(key)
	return ok
}

// Get returns the value stored for key.
func (hd *Handle[V]) Get(key int64) (V, bool) {
	l, rm := hd.l, hd.rm
	var zero V
	if key <= headKey || key >= tailKey {
		return zero, false
	}
	for {
		rm.LeaveQstate()
		var preds, succs [MaxLevel]*Node[V]
		lvl, ok := l.find(hd, key, &preds, &succs)
		if !ok {
			rm.EnterQstate()
			continue
		}
		var val V
		found := false
		if lvl >= 0 {
			n := succs[lvl]
			if n.fullyLinked.Load() && !n.marked.Load() {
				val = n.value
				found = true
			}
		}
		rm.EnterQstate()
		return val, found
	}
}

// Insert adds key to the set, returning true if it was inserted and false if
// it was already present.
func (hd *Handle[V]) Insert(key int64, value V) bool {
	if key <= headKey || key >= tailKey {
		panic("skiplist: key out of supported range")
	}
	l, rm := hd.l, hd.rm
	topLevel := hd.randomLevel()
	// Quiescent preamble: allocate the node we may link.
	node := rm.Allocate()
	for {
		rm.LeaveQstate()
		var preds, succs [MaxLevel]*Node[V]
		lvl, ok := l.find(hd, key, &preds, &succs)
		if !ok {
			rm.EnterQstate()
			continue
		}
		if lvl >= 0 {
			existing := succs[lvl]
			if !existing.marked.Load() {
				// Wait until the concurrent inserter finishes linking, then
				// report "already present".
				for !existing.fullyLinked.Load() {
				}
				rm.EnterQstate()
				rm.Deallocate(node)
				return false
			}
			// The node with this key is marked (being removed): retry.
			rm.EnterQstate()
			continue
		}

		// Lock the predecessors bottom-up and validate.
		initNode(node, key, value, topLevel)
		valid := true
		highestLocked := -1
		var prevPred *Node[V]
		for level := int32(0); valid && level <= topLevel; level++ {
			pred := preds[level]
			succ := succs[level]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = int(level)
				prevPred = pred
			}
			valid = !pred.marked.Load() && !succ.marked.Load() && pred.next[level].Load() == succ
		}
		if !valid {
			l.unlock(preds, highestLocked)
			rm.EnterQstate()
			continue
		}
		for level := int32(0); level <= topLevel; level++ {
			node.next[level].Store(succs[level])
		}
		for level := int32(0); level <= topLevel; level++ {
			preds[level].next[level].Store(node)
		}
		node.fullyLinked.Store(true)
		l.unlock(preds, highestLocked)
		rm.EnterQstate()
		return true
	}
}

// Delete removes key from the set, returning true if it was present.
func (hd *Handle[V]) Delete(key int64) bool {
	if key <= headKey || key >= tailKey {
		return false
	}
	l, rm := hd.l, hd.rm
	var victim *Node[V]
	isMarked := false
	topLevel := int32(-1)
	for {
		rm.LeaveQstate()
		var preds, succs [MaxLevel]*Node[V]
		lvl, ok := l.find(hd, key, &preds, &succs)
		if !ok {
			rm.EnterQstate()
			continue
		}
		if !isMarked {
			if lvl < 0 {
				rm.EnterQstate()
				return false
			}
			victim = succs[lvl]
			if !victim.fullyLinked.Load() || victim.marked.Load() || victim.topLevel != int32(lvl) {
				rm.EnterQstate()
				return false
			}
			topLevel = victim.topLevel
			victim.mu.Lock()
			if victim.marked.Load() {
				victim.mu.Unlock()
				rm.EnterQstate()
				return false
			}
			victim.marked.Store(true)
			isMarked = true
		}

		// Lock predecessors and validate that they still point at victim.
		valid := true
		highestLocked := -1
		var prevPred *Node[V]
		for level := int32(0); valid && level <= topLevel; level++ {
			pred := preds[level]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = int(level)
				prevPred = pred
			}
			valid = !pred.marked.Load() && pred.next[level].Load() == victim
		}
		if !valid {
			l.unlock(preds, highestLocked)
			rm.EnterQstate()
			continue
		}
		for level := topLevel; level >= 0; level-- {
			preds[level].next[level].Store(victim.next[level].Load())
		}
		victim.mu.Unlock()
		l.unlock(preds, highestLocked)
		// The victim is unlinked from every level and unreachable for new
		// searches; hand it to the reclaimer inside the operation, whose
		// announcement pins the epoch the retire reads.
		rm.Retire(victim)
		rm.EnterQstate()
		return true
	}
}

// unlock releases the predecessor locks acquired up to highestLocked.
func (l *List[V]) unlock(preds [MaxLevel]*Node[V], highestLocked int) {
	var prev *Node[V]
	for level := 0; level <= highestLocked; level++ {
		if preds[level] != prev {
			preds[level].mu.Unlock()
			prev = preds[level]
		}
	}
}

// Len returns the number of keys currently in the list (quiescent use only).
func (l *List[V]) Len() int {
	n := 0
	for curr := l.head.next[0].Load(); curr != nil && curr.key != tailKey; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			n++
		}
	}
	return n
}

// ForEach visits every key/value pair in ascending order (quiescent use
// only).
func (l *List[V]) ForEach(fn func(key int64, value V) bool) {
	for curr := l.head.next[0].Load(); curr != nil && curr.key != tailKey; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			if !fn(curr.key, curr.value) {
				return
			}
		}
	}
}

// Validate checks the bottom-level ordering invariant (quiescent use only).
func (l *List[V]) Validate() error {
	prev := l.head
	for curr := l.head.next[0].Load(); curr != nil; curr = curr.next[0].Load() {
		if curr.key <= prev.key && prev != l.head {
			return errOutOfOrder(prev.key, curr.key)
		}
		if curr.key == tailKey {
			return nil
		}
		prev = curr
	}
	return errMissingTail
}

// errMissingTail reports a bottom level that does not terminate at the tail
// sentinel.
var errMissingTail = fmt.Errorf("skiplist: bottom level does not reach the tail sentinel")

// errOutOfOrder reports adjacent bottom-level keys that are not strictly
// ascending.
func errOutOfOrder(a, b int64) error {
	return fmt.Errorf("skiplist: bottom level out of order: %d before %d", a, b)
}

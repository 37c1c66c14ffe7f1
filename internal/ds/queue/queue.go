// Package queue implements the Michael-Scott lock-free FIFO queue against
// the Record Manager abstraction. It is not part of the paper's evaluation
// but serves as the canonical "small" client of safe memory reclamation
// (hazard pointers were originally presented with this queue), and is used
// by the example programs.
package queue

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/neutralize"
)

// Node is the queue's managed record type.
type Node[V any] struct {
	value V
	next  atomic.Pointer[Node[V]]

	// poisoned is test instrumentation for the reclaimtest poison-sink
	// harness (see the hash map's Node for the contract); nothing on the
	// queue's hot path reads it.
	poisoned atomic.Bool
}

// Poison implements the reclaimtest Poisonable contract: mark the record as
// freed, reporting whether it already was (a double free).
func (n *Node[V]) Poison() bool { return n.poisoned.Swap(true) }

// Unpoison clears the freed mark (called by pool wrappers on reuse).
func (n *Node[V]) Unpoison() { n.poisoned.Store(false) }

// IsPoisoned reports whether the record is currently marked freed.
func (n *Node[V]) IsPoisoned() bool { return n.poisoned.Load() }

// Manager is the Record Manager type the queue programs against.
type Manager[V any] = core.RecordManager[Node[V]]

// Queue is a lock-free multi-producer multi-consumer FIFO queue.
type Queue[V any] struct {
	mgr  *Manager[V]
	head atomic.Pointer[Node[V]]
	tail atomic.Pointer[Node[V]]

	perRecord     bool
	crashRecovery bool

	// visit, when non-nil, is called for every node an operation has made
	// safe to access (set before concurrent use; see SetVisitHook).
	visit func(tid int, n *Node[V])
}

// SetVisitHook installs fn to be called for every node an operation has made
// safe to access (after protection and validation under per-record schemes).
// It exists for the reclaimtest safety harness; it must be set before any
// concurrent use. For neutralizing schemes the hook must discard
// observations made with a signal pending (see the scheme's Domain.Pending),
// as those belong to a doomed attempt.
func (q *Queue[V]) SetVisitHook(fn func(tid int, n *Node[V])) { q.visit = fn }

func (q *Queue[V]) observe(tid int, n *Node[V]) {
	if q.visit != nil && n != nil {
		q.visit(tid, n)
	}
}

// New creates an empty queue managed by mgr.
func New[V any](mgr *Manager[V]) *Queue[V] {
	if mgr == nil {
		panic("queue: New requires a RecordManager")
	}
	q := &Queue[V]{
		mgr:           mgr,
		perRecord:     mgr.NeedsPerRecordProtection(),
		crashRecovery: mgr.SupportsCrashRecovery(),
	}
	// The pool is empty before the first free, so the initial dummy comes
	// straight from the allocator (slot 0, before any goroutine holds it).
	dummy := mgr.Allocator().Allocate(0)
	var zero V
	dummy.value = zero
	dummy.next.Store(nil)
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Manager returns the queue's Record Manager.
func (q *Queue[V]) Manager() *Manager[V] { return q.mgr }

// Handle is one worker slot's view of the queue and the only way to operate
// on it: the Record Manager thread handle bound at AcquireHandle, so
// steady-state operations index no per-thread slices and pay at most one
// interface call per reclamation primitive. It is a small value type —
// acquire it once per goroutine and reuse it.
type Handle[V any] struct {
	q   *Queue[V]
	rm  *core.ThreadHandle[Node[V]]
	tid int
}

// AcquireHandle binds the calling goroutine to a vacant worker slot of the
// queue's Record Manager and returns the slot's operation handle; release it
// with ReleaseHandle.
func (q *Queue[V]) AcquireHandle() Handle[V] {
	rm := q.mgr.AcquireHandle()
	return Handle[V]{q: q, rm: rm, tid: rm.Tid()}
}

// ReleaseHandle returns an acquired slot to the manager's registry. The
// calling goroutine must be quiescent (between operations) and must not use
// the handle afterwards.
func (q *Queue[V]) ReleaseHandle(hd Handle[V]) { q.mgr.ReleaseHandle(hd.rm) }

// Tid returns the dense thread id the handle is bound to.
func (hd Handle[V]) Tid() int { return hd.tid }

// Queue returns the queue the handle operates on.
func (hd Handle[V]) Queue() *Queue[V] { return hd.q }

// Enqueue appends value to the tail of the queue.
func (hd Handle[V]) Enqueue(value V) {
	// Quiescent preamble: allocate the node the body publishes (allocation
	// is not re-entrant, so it must not happen inside a body that can be
	// neutralized and re-run).
	node := hd.rm.Allocate()
	node.value = value
	node.next.Store(nil)
	for !hd.q.enqueueBody(hd, node) {
	}
}

// enqueueBody is one execution of the enqueue body. The linearizing CAS
// result is captured in published before EnterQstate (which can deliver a
// pending neutralization), so recovery decides retry-vs-done from local
// state alone.
func (q *Queue[V]) enqueueBody(hd Handle[V], node *Node[V]) (done bool) {
	rm := hd.rm
	published := false
	if q.crashRecovery {
		defer neutralize.OnNeutralized(hd.rm, func(neutralize.Neutralized) {
			done = published
		})
	}
	rm.LeaveQstate()
	for {
		rm.Checkpoint()
		tail := q.tail.Load()
		if q.perRecord {
			if !rm.Protect(tail) || q.tail.Load() != tail {
				rm.Unprotect(tail)
				continue
			}
		}
		q.observe(hd.tid, tail)
		next := tail.next.Load()
		if next != nil {
			// Tail is lagging; help advance it.
			q.tail.CompareAndSwap(tail, next)
			if q.perRecord {
				rm.Unprotect(tail)
			}
			continue
		}
		if tail.next.CompareAndSwap(nil, node) {
			published = true
			q.tail.CompareAndSwap(tail, node)
			if q.perRecord {
				rm.Unprotect(tail)
			}
			break
		}
		if q.perRecord {
			rm.Unprotect(tail)
		}
	}
	rm.EnterQstate()
	return true
}

// Dequeue removes and returns the value at the head of the queue; ok is
// false when the queue is empty.
func (hd Handle[V]) Dequeue() (V, bool) {
	for {
		value, ok, done := hd.q.dequeueBody(hd)
		if done {
			return value, ok
		}
	}
}

// dequeueBody is one execution of the dequeue body. A successful head CAS is
// durable (captured in the named returns before EnterQstate); an
// empty-queue observation made by a neutralized attempt is discarded and
// retried, because it may have been computed from reclaimed records.
func (q *Queue[V]) dequeueBody(hd Handle[V]) (value V, ok, done bool) {
	rm := hd.rm
	if q.crashRecovery {
		defer neutralize.OnNeutralized(hd.rm, func(neutralize.Neutralized) {
			if !done {
				var zero V
				value, ok = zero, false
			}
		})
	}
	rm.LeaveQstate()
	empty := false
	for {
		rm.Checkpoint()
		head := q.head.Load()
		if q.perRecord {
			if !rm.Protect(head) || q.head.Load() != head {
				rm.Unprotect(head)
				continue
			}
		}
		q.observe(hd.tid, head)
		tail := q.tail.Load()
		next := head.next.Load()
		if q.perRecord && next != nil {
			if !rm.Protect(next) || head.next.Load() != next {
				rm.Unprotect(head)
				rm.Unprotect(next)
				continue
			}
		}
		if head == q.head.Load() {
			// Only now is next proven reachable (head is still the head, so
			// next cannot have been retired): the announcement made above is
			// in time, and the observation is of a live record.
			q.observe(hd.tid, next)
			if head == tail {
				if next == nil {
					q.releasePair(hd, head, next)
					empty = true
					break
				}
				// Tail lagging behind; help it forward.
				q.tail.CompareAndSwap(tail, next)
			} else {
				value = next.value
				if q.head.CompareAndSwap(head, next) {
					ok, done = true, true
					q.releasePair(hd, head, next)
					// The old dummy head is unreachable for new operations.
					rm.Retire(head)
					break
				}
				var zero V
				value = zero
			}
		}
		q.releasePair(hd, head, next)
	}
	rm.EnterQstate()
	if empty && !done {
		// The empty observation commits only once EnterQstate returned
		// without delivering a neutralization: a doomed attempt may have
		// computed "empty" from reclaimed records, so it retries instead.
		ok, done = false, true
	}
	return value, ok, done
}

// releasePair drops the hazard pointers acquired by Dequeue.
func (q *Queue[V]) releasePair(hd Handle[V], head, next *Node[V]) {
	if !q.perRecord {
		return
	}
	hd.rm.Unprotect(head)
	if next != nil {
		hd.rm.Unprotect(next)
	}
}

// Len returns the number of elements currently in the queue (quiescent use
// only: it walks the list without protection).
func (q *Queue[V]) Len() int {
	n := 0
	for node := q.head.Load().next.Load(); node != nil; node = node.next.Load() {
		n++
	}
	return n
}

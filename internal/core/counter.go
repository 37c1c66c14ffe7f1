package core

import "sync/atomic"

// Counter is a single-writer statistics counter: the cheapest cell that lets
// exactly one owner thread count events on a hot path while concurrent
// Stats() readers take racy-but-coherent snapshots.
//
// The Record Manager stack's per-thread stats counters (records retired,
// freed, scans, pool reuse, ...) used to be atomic.Int64 values bumped with
// Add — a LOCK-prefixed read-modify-write per event, several times per data
// structure operation, even though every one of those counters has a single
// writer by construction (its owning dense tid). Counter replaces the RMW
// with the single-writer idiom: the owner reads its own last value with a
// plain load (no other thread ever writes it, so the read needs no
// synchronisation) and publishes the sum with an atomic store. Readers use an
// atomic load and may observe a slightly stale value, never a torn one —
// exactly the contract Stats() snapshots always had ("exact only when the
// workers are quiescent").
//
// Ownership may migrate between threads across a happens-before edge (for
// example DrainLimbo charging frees after the worker goroutines are joined);
// what is forbidden is two goroutines Adding concurrently.
//
// Padding note: a Counter is a bare 8-byte cell so that the several counters
// of one thread can share the cache lines that thread already owns. The
// per-thread aggregates that embed Counters (scheme thread state, pool
// thread state, ...) carry the [PadBytes] tail that keeps
// NEIGHBOURING threads' counters off each other's cache lines; a standalone
// per-thread counter array should do the same.
type Counter struct {
	v int64
}

// Add increments the counter by n. Only the owner may call Add: the plain
// read of the previous value is what makes this cheaper than an atomic
// read-modify-write, and it is only sound with a single writer.
func (c *Counter) Add(n int64) { atomic.StoreInt64(&c.v, c.v+n) }

// Inc increments the counter by one (owner only).
func (c *Counter) Inc() { c.Add(1) }

// Load returns the most recently published value. Safe from any goroutine;
// concurrent with the owner it may lag by in-flight Adds but is never torn.
func (c *Counter) Load() int64 { return atomic.LoadInt64(&c.v) }

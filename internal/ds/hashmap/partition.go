package hashmap

// This file implements the partitioned-namespace wrapper the KV service
// (internal/kvservice) serves from: N independent Maps, each with its own
// Record Manager — and therefore its own slot registry and reclamation
// domain — with keys routed by hash. Partitioning
// multiplies every per-manager resource by N, which is exactly the point: a
// partition is a reclamation blast radius. A stalled reader in one partition
// delays grace periods (and memory reuse) for that partition's keys only.
//
// Routing uses the high half of the same mixed hash the map's buckets use
// the low bits of, so the two levels stay uncorrelated: a partition receives
// keys with every low-bit pattern and populates its bucket table uniformly
// (routing on low bits would leave each partition's table with only every
// N-th bucket occupied). A keyed operation hashes once: the handle routes on
// the hash and hands it to the partition's map.

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Partitioned is a hash map split into N independently managed partitions.
// Construct with NewPartitioned, bind goroutines with NewHandle +
// PartitionedHandle.Acquire (or the one-shot AcquireHandle), and Close when
// done to shut every partition's reclamation pipeline down.
type Partitioned[V any] struct {
	parts []*Map[V]
}

// NewPartitioned creates a map of `partitions` independent partitions.
// build constructs partition p's Record Manager (called once per partition,
// so each can be configured — scheme, slot capacity — identically or not); threads and opts are passed to each partition's Map
// exactly as in New.
func NewPartitioned[V any](partitions int, build func(p int) *Manager[V], threads int, opts ...Option) *Partitioned[V] {
	if partitions < 1 {
		panic("hashmap: NewPartitioned requires partitions >= 1")
	}
	if build == nil {
		panic("hashmap: NewPartitioned requires a manager builder")
	}
	pm := &Partitioned[V]{parts: make([]*Map[V], partitions)}
	for p := range pm.parts {
		mgr := build(p)
		if mgr == nil {
			panic(fmt.Sprintf("hashmap: NewPartitioned: builder returned nil for partition %d", p))
		}
		pm.parts[p] = New(mgr, threads, opts...)
	}
	return pm
}

// Partitions returns the partition count.
func (pm *Partitioned[V]) Partitions() int { return len(pm.parts) }

// Partition returns partition p's Map (instrumentation and tests; keyed
// operations go through a PartitionedHandle, which routes automatically).
func (pm *Partitioned[V]) Partition(p int) *Map[V] { return pm.parts[p] }

// PartitionFor returns the partition index key routes to.
func (pm *Partitioned[V]) PartitionFor(key int64) int { return route(hashOf(key), len(pm.parts)) }

// route maps a mixed hash to one of n partitions: the high half of the hash
// (uncorrelated with the low bits a partition's bucket table indexes by)
// scaled into [0, n) by a multiply and a shift, no division.
func route(hash uint64, n int) int { return int((hash >> 32) * uint64(n) >> 32) }

// Len returns the number of live keys across all partitions (quiescent use
// only, like Map.Len).
func (pm *Partitioned[V]) Len() int {
	n := 0
	for _, m := range pm.parts {
		n += m.Len()
	}
	return n
}

// Count returns the summed element counters of all partitions (exact when
// quiescent, like Map.Count).
func (pm *Partitioned[V]) Count() int {
	n := 0
	for _, m := range pm.parts {
		n += m.Count()
	}
	return n
}

// Stats returns the summed operation counters of all partitions.
func (pm *Partitioned[V]) Stats() Stats {
	var s Stats
	for _, m := range pm.parts {
		ps := m.Stats()
		s.Restarts += ps.Restarts
		s.Unlinks += ps.Unlinks
		s.Resizes += ps.Resizes
		s.Dummies += ps.Dummies
	}
	return s
}

// ManagerStats returns the summed Record Manager statistics of all
// partitions (the fields kvservice reports through STATS; exact when
// quiescent, like every Stats snapshot in the stack).
func (pm *Partitioned[V]) ManagerStats() core.ManagerStats {
	var out core.ManagerStats
	for _, m := range pm.parts {
		s := m.Manager().Stats()
		out.Reclaimer.Retired += s.Reclaimer.Retired
		out.Reclaimer.Freed += s.Reclaimer.Freed
		out.Reclaimer.Limbo += s.Reclaimer.Limbo
		out.Reclaimer.EpochAdvances += s.Reclaimer.EpochAdvances
		out.Reclaimer.Scans += s.Reclaimer.Scans
		out.Alloc.Allocated += s.Alloc.Allocated
		out.Alloc.Deallocated += s.Alloc.Deallocated
		out.Alloc.AllocatedBytes += s.Alloc.AllocatedBytes
		out.Pool.Reused += s.Pool.Reused
		out.Pool.FromAllocator += s.Pool.FromAllocator
		out.Pool.Freed += s.Pool.Freed
		out.Pool.ToShared += s.Pool.ToShared
		out.Pool.FromShared += s.Pool.FromShared
		out.Unreclaimed += s.Unreclaimed
	}
	return out
}

// Close shuts every partition's reclamation pipeline down (see
// core.RecordManager.Close): every handle must have been released (or its
// goroutine quiesced and joined) first. After Close, Retired == Freed holds
// per partition for every reclaiming scheme.
func (pm *Partitioned[V]) Close() {
	for _, m := range pm.parts {
		m.Manager().Close()
	}
}

// Validate checks the structural invariants of every partition (quiescent
// use only).
func (pm *Partitioned[V]) Validate() error {
	var errs []error
	for p, m := range pm.parts {
		if err := m.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("partition %d: %w", p, err))
		}
	}
	return errors.Join(errs...)
}

// PartitionedHandle is one goroutine's bound view of every partition: one
// slot-bound Map handle per partition, acquired and released together, so a
// request burst can touch any key while the goroutine holds exactly one slot
// in each partition's registry. The struct is reusable across bursts —
// allocate it once per goroutine with NewHandle, then Acquire/Release per
// burst without further allocation.
type PartitionedHandle[V any] struct {
	pm    *Partitioned[V]
	hs    []*Handle[V]
	bound bool
}

// NewHandle returns an unbound handle sized for the map's partitions. Call
// Acquire before the first operation.
func (pm *Partitioned[V]) NewHandle() *PartitionedHandle[V] {
	return &PartitionedHandle[V]{pm: pm, hs: make([]*Handle[V], len(pm.parts))}
}

// Acquire binds the calling goroutine to a vacant worker slot in every
// partition. Panics when any partition's slots are exhausted; use TryAcquire
// to back off instead.
func (h *PartitionedHandle[V]) Acquire() {
	if !h.TryAcquire() {
		panic("hashmap: PartitionedHandle.Acquire: a partition's worker slots are exhausted (raise MaxThreads)")
	}
}

// TryAcquire is Acquire that reports slot exhaustion instead of panicking.
// On failure no slot is held: partitions acquired before the exhausted one
// are released again.
func (h *PartitionedHandle[V]) TryAcquire() bool {
	if h.bound {
		panic("hashmap: PartitionedHandle.Acquire on an already-bound handle")
	}
	for p, m := range h.pm.parts {
		hd, ok := m.TryAcquireHandle()
		if !ok {
			for q := 0; q < p; q++ {
				h.pm.parts[q].ReleaseHandle(h.hs[q])
				h.hs[q] = nil
			}
			return false
		}
		h.hs[p] = hd
	}
	h.bound = true
	return true
}

// Release returns every partition's slot to its registry. The calling
// goroutine must be quiescent in every partition (between operations is
// always legal — every map operation leaves the thread quiescent). The
// handle may be re-Acquired afterwards.
func (h *PartitionedHandle[V]) Release() {
	if !h.bound {
		panic("hashmap: PartitionedHandle.Release on an unbound handle")
	}
	for p, m := range h.pm.parts {
		m.ReleaseHandle(h.hs[p])
		h.hs[p] = nil
	}
	h.bound = false
}

// Bound reports whether the handle currently holds its partition slots.
func (h *PartitionedHandle[V]) Bound() bool { return h.bound }

// AcquireHandle is the one-shot convenience form: NewHandle + Acquire.
func (pm *Partitioned[V]) AcquireHandle() *PartitionedHandle[V] {
	h := pm.NewHandle()
	h.Acquire()
	return h
}

// ReleaseHandle releases a handle obtained from AcquireHandle (equivalent to
// h.Release; mirrors the Map-level API shape).
func (pm *Partitioned[V]) ReleaseHandle(h *PartitionedHandle[V]) { h.Release() }

// Part returns the bound handle for partition p (from PartitionFor), for a
// caller that routes a key once and runs several calls on its partition; the
// handle is only valid while h remains bound.
func (h *PartitionedHandle[V]) Part(p int) *Handle[V] { return h.hs[p] }

// Get returns the value associated with key and whether it is present.
func (h *PartitionedHandle[V]) Get(key int64) (V, bool) {
	hash := hashOf(key)
	return h.hs[route(hash, len(h.hs))].getHashed(hash, nil)
}

// Contains reports whether key is present.
func (h *PartitionedHandle[V]) Contains(key int64) bool {
	_, ok := h.Get(key)
	return ok
}

// Insert adds key with the given value, returning false if it was already
// present (set semantics, like Handle.Insert).
func (h *PartitionedHandle[V]) Insert(key int64, value V) bool {
	hash := hashOf(key)
	return h.hs[route(hash, len(h.hs))].insertHashed(hash, value)
}

// Delete removes key, returning true if it was present.
func (h *PartitionedHandle[V]) Delete(key int64) bool {
	hash := hashOf(key)
	return h.hs[route(hash, len(h.hs))].deleteHashed(hash)
}

// Upsert sets key to value, returning the previous value and whether the key
// was present (see Handle.Upsert for the replace protocol).
func (h *PartitionedHandle[V]) Upsert(key int64, value V) (V, bool) {
	hash := hashOf(key)
	return h.hs[route(hash, len(h.hs))].upsertHashed(hash, value, nil)
}

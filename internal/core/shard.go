package core

import (
	"fmt"
	"runtime"
)

// This file defines the sharded reclamation domain layer: the mapping from
// dense thread ids onto reclamation shards ("domains"). A Record Manager
// built over N shards partitions its threads so that the reclaimer's
// per-operation bookkeeping — epoch announcement scans, limbo-bag rotation,
// retire-path locking — touches mostly shard-local state. Only the slow path
// (verifying that a lagging shard is quiescent before a global epoch
// advance) crosses shard boundaries, which is what makes the scheme safe for
// data structures whose threads span multiple domains: records are never
// freed until every shard has been verified quiescent for the retiring
// epoch, exactly as in the single-domain schemes, but the verification work
// is distributed and memoised per shard.
//
// The tid→shard placement policy is the NUMA-style knob: "block" placement
// assigns contiguous tid ranges to the same shard (matching the common
// practice of pinning consecutive worker ids to the same socket), "stripe"
// round-robins tids across shards (matching hardware that enumerates
// hyperthreads across sockets first).

// ShardPlacement selects how dense thread ids are mapped onto shards.
type ShardPlacement string

// Placement policies.
const (
	// PlaceBlock assigns contiguous blocks of tids to each shard
	// (tids 0..k-1 -> shard 0, k..2k-1 -> shard 1, ...). This is the
	// default and matches "consecutive worker ids share a socket" pinning.
	PlaceBlock ShardPlacement = "block"
	// PlaceStripe round-robins tids across shards (tid % shards).
	PlaceStripe ShardPlacement = "stripe"
)

// ShardSpec describes a sharded reclamation domain: how many shards to run
// and how threads are placed onto them. The zero value (or Shards <= 1)
// selects a single domain, which preserves the unsharded behaviour of every
// scheme exactly.
type ShardSpec struct {
	// Shards is the number of reclamation domains. Values <= 1 mean one
	// domain; values larger than the thread count are clamped to it.
	Shards int
	// Placement is the tid→shard policy; empty means PlaceBlock.
	Placement ShardPlacement
}

// String renders the spec the way the bench harness labels it.
func (s ShardSpec) String() string {
	n := s.Shards
	if n < 1 {
		n = 1
	}
	p := s.Placement
	if p == "" {
		p = PlaceBlock
	}
	return fmt.Sprintf("shards=%d/%s", n, p)
}

// ParsePlacement validates a placement name from a CLI flag.
func ParsePlacement(name string) (ShardPlacement, error) {
	switch ShardPlacement(name) {
	case "", PlaceBlock:
		return PlaceBlock, nil
	case PlaceStripe:
		return PlaceStripe, nil
	default:
		return "", fmt.Errorf("core: unknown shard placement %q (want %q or %q)", name, PlaceBlock, PlaceStripe)
	}
}

// ShardMap is the resolved form of a ShardSpec for a fixed thread count: a
// precomputed tid→shard index and the member list of every shard. Reclaimers
// embed one and consult it on their hot paths; the topology is immutable
// after construction and therefore safe for concurrent use. A dynamic
// thread-slot registry may be attached once, before concurrent use (the
// Record Manager does this at construction); the occupancy queries below
// then let the schemes' scan paths skip slots nobody currently owns, and
// degrade to "everything occupied" when no registry is attached — the
// historical fixed-Threads behaviour.
type ShardMap struct {
	spec    ShardSpec
	n       int
	shardOf []int
	members [][]int
	reg     *SlotRegistry
}

// NewShardMap resolves spec for n threads. Shard counts are clamped to
// [1, n]; an unknown placement panics (Build validates names before they
// reach this point, so a panic here is a programming error).
func NewShardMap(n int, spec ShardSpec) *ShardMap {
	if n <= 0 {
		panic("core: NewShardMap requires n >= 1")
	}
	if spec.Shards < 1 {
		spec.Shards = 1
	}
	if spec.Shards > n {
		spec.Shards = n
	}
	if spec.Placement == "" {
		spec.Placement = PlaceBlock
	}
	m := &ShardMap{
		spec:    spec,
		n:       n,
		shardOf: make([]int, n),
		members: make([][]int, spec.Shards),
	}
	for tid := 0; tid < n; tid++ {
		var s int
		switch spec.Placement {
		case PlaceBlock:
			s = tid * spec.Shards / n
		case PlaceStripe:
			s = tid % spec.Shards
		default:
			panic(fmt.Sprintf("core: unknown shard placement %q", spec.Placement))
		}
		m.shardOf[tid] = s
		m.members[s] = append(m.members[s], tid)
	}
	return m
}

// Spec returns the (normalised) spec the map was built from.
func (m *ShardMap) Spec() ShardSpec { return m.spec }

// Threads returns the number of threads the map covers.
func (m *ShardMap) Threads() int { return m.n }

// Shards returns the number of shards.
func (m *ShardMap) Shards() int { return len(m.members) }

// ShardOf returns the shard index of a thread.
func (m *ShardMap) ShardOf(tid int) int { return m.shardOf[tid] }

// Members returns the tids placed on shard s. The returned slice is shared
// and must not be mutated.
func (m *ShardMap) Members(s int) []int { return m.members[s] }

// AttachRegistry attaches a dynamic slot registry to the map, enabling the
// occupancy queries below. It must be called before concurrent use of the
// reclaimer holding the map (the Record Manager attaches at construction,
// which precedes any worker goroutine); attaching twice — two managers built
// over one externally shared reclaimer — is rejected, because the second
// manager's registry would silently shadow the first's occupancy.
func (m *ShardMap) AttachRegistry(r *SlotRegistry) {
	if m.reg != nil && m.reg != r {
		panic("core: ShardMap already has a slot registry attached (one reclaimer cannot serve two Record Managers' slot registries)")
	}
	m.reg = r
}

// Registry returns the attached slot registry (nil when none).
func (m *ShardMap) Registry() *SlotRegistry { return m.reg }

// SlotOccupied reports whether tid's slot is currently owned. Without an
// attached registry every slot reads as occupied (the fixed-Threads
// behaviour). A vacant slot is quiescent by the release contract, so scan
// paths may treat SlotOccupied==false exactly like an observed-quiescent
// announcement.
func (m *ShardMap) SlotOccupied(tid int) bool {
	if m.reg == nil {
		return true
	}
	return m.reg.Occupied(tid)
}

// ShardLive returns the number of occupied members of shard s, or -1 when
// no registry is attached (occupancy unknown — scan everything). A shard
// with ShardLive(s) == 0 has only vacant, hence quiescent, members and may
// be verified without touching a single announcement; ShardLive(s) == 1
// lets a scanning member skip its shard loop entirely when it is the only
// occupant.
func (m *ShardMap) ShardLive(s int) int {
	if m.reg == nil || m.reg.shards == nil {
		return -1
	}
	return int(m.reg.shards[s].occ.Load())
}

// DefaultShardSweep returns the shard counts the DS-level safety stresses
// cover on this machine: 1 (the single-domain
// baseline), 2, and NumCPU, deduplicated and ascending.
func DefaultShardSweep() []int {
	out := []int{1}
	for _, s := range []int{2, runtime.NumCPU()} {
		if s > out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

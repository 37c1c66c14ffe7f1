package hashmap

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/core"
)

// Node kinds, the low byte of Node.meta. A record's kind is assigned before it
// is published and never changes while the record is reachable, so readers
// that hold a safe reference (epoch-covered or hazard-protected) see one value
// for as long as they may look. A bucket head is the exception: it lives in
// the directory, not in a record, and its word moves once through
// unclaimed -> linking -> dummy (Map.linkHead).
//
//	0  kindUnclaimed  a bucket head nobody has entered yet. Zero, because segment
//	                  memory arrives zeroed and a head is found by arithmetic
//	1  kindRegular    a key/value node. One that follows a regular node of its
//	                  own sokey is that node's replacement, and marks it as a
//	                  marker would (replaces)
//	2  kindDummy      a bucket head that is on the list. Heads are never removed,
//	                  so traversals keep unprotected references to them: they are
//	                  the stable re-entry points of every bucket
//	3  kindMarker     the mark spliced after a deleted node — a deletion only (the
//	                  Harris/CSLM marker-node technique: Go has no pointer mark
//	                  bits, so the mark is a one-shot successor node that makes a
//	                  deleted node's next field CAS-incomparable to any plain
//	                  successor)
//	4  kindLinking    a bucket head claimed by the worker slot named in bits 9-31,
//	                  which is splicing it (it may already be on the list)
const (
	kindUnclaimed uint32 = iota
	kindRegular
	kindDummy
	kindMarker
	kindLinking

	// kindMask selects the kind from Node.meta; poisonBit is the reclaimtest
	// freed-mark that shares the word; a linking head carries its claimer's
	// slot from slotShift up.
	kindMask  uint32 = 0xff
	poisonBit uint32 = 1 << 8
	slotShift        = 9
)

// linkingBy is the meta word of a head claimed by worker slot tid.
func linkingBy(tid int) uint32 { return kindLinking | uint32(tid)<<slotShift }

// Node is the hash map's managed record type, and the element type of the
// bucket directory. One type covers the three roles (regular, dummy, marker)
// so a single Record Manager manages every allocation of the structure, as
// the paper recommends for multi-role structures (fold the types into one
// record with a kind discriminator), and so a bucket head embedded in the
// directory is a list node like any other.
//
// A node stores no user key: its split-order key determines it (keyOf), and
// a copy would cost a quarter of the record. Byte map of Node[uint32] — 24
// bytes:
//
//	 0  sokey  uint64           regular: bit-reversed hash; head: bit-reversed
//	                            bucket index; marker: 0. The list is sorted by
//	                            (sokey, rank), a head ranking before a regular node
//	 8  next   *Node            successor; a marked node's next is its marker or
//	                            its replacement, a marker's next the frozen
//	                            successor
//	16  meta   uint32           bits 0-7 kind, bit 8 reclaimtest poison flag,
//	                            bits 9-31 the claimer's slot while a head is linking
//	20  value  V                regular: the value; marker: whatever it last held
//
// A wider V grows the record from offset 20 (Node[[]byte] is 48 bytes, its
// value aligned to 24); sokey, next and meta, all a hop reads, stay in the
// first 20. At a stride of 24 bytes, two of every eight slab positions
// straddle a cache line. The epoch read path (lookup) reads a node's sokey
// and next, and its meta only on a sokey tie.
type Node[V any] struct {
	sokey uint64
	next  atomic.Pointer[Node[V]]
	// meta is atomic because the poison flag is set and cleared by the test
	// pool wrappers while the kind sits beside it; on the hot path it is only
	// ever loaded (a plain MOV).
	meta  atomic.Uint32
	value V
}

// Key returns the node's key (meaningful for regular nodes only).
func (n *Node[V]) Key() int64 { return keyOf(n.sokey) }

// Value returns the node's value (meaningful for regular nodes only).
func (n *Node[V]) Value() V { return n.value }

// SplitOrderKey returns the node's split-order key.
func (n *Node[V]) SplitOrderKey() uint64 { return n.sokey }

func (n *Node[V]) kind() uint32 { return n.meta.Load() & kindMask }

// IsDummy reports whether the node is a bucket sentinel.
func (n *Node[V]) IsDummy() bool { return n.kind() == kindDummy }

// IsMarker reports whether the node is a logical-deletion marker.
func (n *Node[V]) IsMarker() bool { return n.kind() == kindMarker }

// Poison implements the reclaimtest Poisonable contract: mark the record as
// freed, reporting whether it already was (a double free). The harness sets
// the mark when the record is handed to the free path and clears it on reuse,
// and asserts through the map's visit hook that a traversal never observes it
// on a node protection made safe to access.
func (n *Node[V]) Poison() bool { return n.meta.Or(poisonBit)&poisonBit != 0 }

// Unpoison clears the freed mark (called by pool wrappers on reuse).
func (n *Node[V]) Unpoison() { n.meta.And(^poisonBit) }

// IsPoisoned reports whether the record is currently marked freed.
func (n *Node[V]) IsPoisoned() bool { return n.meta.Load()&poisonBit != 0 }

// Manager is the Record Manager type the hash map programs against.
type Manager[V any] = core.RecordManager[Node[V]]

// mix64 is the splitmix64 finalizer: a bijective scrambler that spreads
// adjacent integer keys across the whole 64-bit hash space, so the uniform
// integer workloads of the benchmarks do not degenerate into sequential
// bucket probes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unmix64 inverts mix64: each xor-shift is undone by xoring in the shifted
// copies that recover the high bits first, each multiplier by its inverse
// modulo 2^64.
func unmix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= 0x319642b2d24d8ec3
	x ^= x>>27 ^ x>>54
	x *= 0x96de1b173f119089
	x ^= x>>30 ^ x>>60
	return x
}

// hashOf returns the mixed hash of a user key.
func hashOf(key int64) uint64 { return mix64(uint64(key)) }

// regularSoKey converts a mixed hash to a regular node's split-order key.
// Both steps are bijections, so no two keys share a sokey.
func regularSoKey(hash uint64) uint64 { return bits.Reverse64(hash) }

// keyOf recovers the user key a regular node's split-order key encodes.
func keyOf(sokey uint64) int64 { return int64(unmix64(bits.Reverse64(sokey))) }

// dummySoKey converts a bucket index to its head's split-order key. Every
// hash h in bucket b of a 2^k-bucket table has b as its low k bits, so
// dummySoKey(b) <= regularSoKey(h), equal only when h == b: the head sorts
// no later than every regular key of its bucket, and the one it ties with is
// ordered by rank.
func dummySoKey(bucket uint64) uint64 { return bits.Reverse64(bucket) }

// Ranks order the two nodes that can share a sokey: bucket b's head, and the
// regular node whose hash is b.
const (
	rankHead = iota
	rankRegular
)

// rank is the node's place among nodes of equal sokey. A head ranks as one
// whatever stage of its claim it is in.
func (n *Node[V]) rank() int {
	if n.kind() == kindRegular {
		return rankRegular
	}
	return rankHead
}

// cmp places n against the list position (sokey, rank): negative if n comes
// before it, zero if n is the node at it, positive if n comes after it. The
// kind is read only on a sokey tie. A marker, whose sokey is 0 and which
// ranks as a head, comes before every regular node's position, so a walk
// looking for one passes markers without telling them apart.
func (n *Node[V]) cmp(sokey uint64, rank int) int {
	switch {
	case n.sokey < sokey:
		return -1
	case n.sokey > sokey:
		return 1
	}
	return n.rank() - rank
}

// replaces reports whether next, read from n's next field, is n's
// replacement: the regular node a replacing Upsert spliced after n, which
// marks n as a deletion marker does. Nothing else of n's sokey can follow a
// regular n (no two keys share a sokey, a head ranks before the regular node
// it ties with, and a marker is told apart by its kind), so the kinds are
// read only on a sokey tie.
func replaces[V any](n, next *Node[V]) bool {
	return next.sokey == n.sokey && next.kind() == kindRegular && n.kind() == kindRegular
}

// parentBucket returns the parent of bucket b in the split-order recursive
// initialisation scheme: b with its most significant set bit cleared.
func parentBucket(b uint64) uint64 {
	return b &^ (1 << (bits.Len64(b) - 1))
}

// setKind assigns the role of a record the caller owns exclusively. The
// store is skipped when the recycled record already has the kind (an atomic
// store is an XCHG); a record handed out by an allocator or pool is never
// poisoned, so the whole word is the kind.
func (n *Node[V]) setKind(kind uint32) {
	if n.meta.Load() != kind {
		n.meta.Store(kind)
	}
}

// initRegular (re)initialises a recycled record as a key/value node.
func initRegular[V any](n *Node[V], value V, sokey uint64, next *Node[V]) {
	n.value = value
	n.sokey = sokey
	n.setKind(kindRegular)
	n.next.Store(next)
}

// initMarker (re)initialises a recycled record as a deletion marker whose
// frozen successor is next. The value is left alone: nobody reads a marker's
// value, and the storage it holds comes back to UpsertFunc's fill when the
// record is a node again.
func initMarker[V any](n *Node[V], next *Node[V]) {
	n.sokey = 0
	n.setKind(kindMarker)
	n.next.Store(next)
}

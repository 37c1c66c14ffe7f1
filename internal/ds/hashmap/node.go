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
//	1  kindRegular    a key/value node
//	2  kindDummy      a bucket head that is on the list. Heads are never removed,
//	                  so traversals keep unprotected references to them: they are
//	                  the stable re-entry points of every bucket
//	3  kindMarker     the logical-deletion mark spliced after a deleted node (the
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
// Byte map of Node[uint32] — 32 bytes, so a 64-byte-aligned slab holds two
// nodes per cache line and no node straddles one. Everything a traversal
// reads of a node is therefore one line:
//
//	 0  key    int64            regular: the user key; dummy, marker: 0
//	 8  sokey  uint64           regular: bit-reversed hash | 1; dummy: bit-reversed
//	                            bucket index; marker: 0. The list is sorted by (sokey, key)
//	16  next   *Node            successor; a marked node's next is its marker, a
//	                            marker's next the frozen successor
//	24  value  V                regular: the value; marker: whatever it last held
//	28  meta   uint32           bits 0-7 kind, bit 8 reclaimtest poison flag,
//	                            bits 9-31 the claimer's slot while a head is linking
//
// A wider V grows the record from offset 24 (Node[[]byte] is 56 bytes); key,
// sokey and next, which every hop reads, stay in the first 24.
type Node[V any] struct {
	key   int64
	sokey uint64
	next  atomic.Pointer[Node[V]]
	value V
	// meta is atomic because the poison flag is set and cleared by the test
	// pool wrappers while the kind sits beside it; on the hot path it is only
	// ever loaded (a plain MOV).
	meta atomic.Uint32
}

// Key returns the node's key (meaningful for regular nodes only).
func (n *Node[V]) Key() int64 { return n.key }

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

// hashOf returns the mixed hash of a user key.
func hashOf(key int64) uint64 { return mix64(uint64(key)) }

// regularSoKey converts a mixed hash to a regular node's split-order key.
// Setting the low bit sacrifices the hash's top bit (two hashes differing
// only there share a sokey), which is why the list order and equality tests
// tiebreak on the full user key.
func regularSoKey(hash uint64) uint64 { return bits.Reverse64(hash) | 1 }

// dummySoKey converts a bucket index to its dummy node's split-order key.
// Bucket indexes are < 2^63, so the result always has the low bit clear and
// sorts immediately before every regular key hashing into the bucket.
func dummySoKey(bucket uint64) uint64 { return bits.Reverse64(bucket) }

// soLess reports whether position a=(aSo,aKey) precedes b in split order.
func soLess(aSo uint64, aKey int64, bSo uint64, bKey int64) bool {
	if aSo != bSo {
		return aSo < bSo
	}
	return aKey < bKey
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
func initRegular[V any](n *Node[V], key int64, value V, sokey uint64, next *Node[V]) {
	n.key = key
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
	n.key = 0
	n.sokey = 0
	n.setKind(kindMarker)
	n.next.Store(next)
}

package hashmap

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/core"
)

// Node kinds, the low two bits of Node.meta. Every record is a regular node,
// from the slab that numbers it to the end of the allocator's life: the kind
// is stored with the record's index (SetIndex) and never changes. A bucket
// head is not a record: it lives in the directory, and its word moves once
// through unclaimed -> linking -> dummy (Map.linkHead).
//
//	0  kindUnclaimed  a bucket head nobody has entered yet. Zero, because segment
//	                  memory arrives zeroed and a head is found by arithmetic
//	1  kindRegular    a key/value node: every record
//	2  kindDummy      a bucket head that is on the list. Heads are never removed,
//	                  so traversals keep unprotected references to them: they are
//	                  the stable re-entry points of every bucket
//	3  kindLinking    a bucket head claimed by the worker slot named in bits 3-31,
//	                  which is splicing it (it may already be on the list)
const (
	kindUnclaimed uint32 = iota
	kindRegular
	kindDummy
	kindLinking

	// kindMask selects the kind from Node.meta; poisonBit is the reclaimtest
	// freed-mark that shares the word. Above them a record carries its index
	// from idxShift up, and a linking head its claimer's slot from slotShift
	// up.
	kindMask  uint32 = 0b11
	poisonBit uint32 = 1 << 2
	idxShift         = 3
	slotShift        = 3
	// maxIndex is the largest record index meta can hold: 2^29 records, 12
	// GiB of Node[uint32].
	maxIndex = 1<<(32-idxShift) - 1
)

// linkingBy is the meta word of a head claimed by worker slot tid.
func linkingBy(tid int) uint32 { return kindLinking | uint32(tid)<<slotShift }

// Links. A node names its successor by a link, a uint64 CASed as one word:
//
//	bit  0     markBit: the node that holds the link is marked — deleted, or
//	           replaced by the successor the link names. A marked link is
//	           never changed again
//	bit  1     recBit: the successor is a record, and bits 2-33 are its index
//	           in the allocator's directory (arena.Directory)
//	bits 2-    without recBit: the bucket number of the successor head, and 0
//	           for the end of the list (bucket 0's head is nobody's successor)
//
// So the zero word is an unmarked link to nothing, which is what a head's
// next is before it is spliced in.
const (
	markBit  uint64 = 1 << 0
	recBit   uint64 = 1 << 1
	refShift        = 2
)

// recLink is the unmarked link to the record with index idx.
func recLink(idx uint32) uint64 { return uint64(idx)<<refShift | recBit }

// headLink is the unmarked link to bucket b's head.
func headLink(b uint64) uint64 { return b << refShift }

// Node is the hash map's managed record type, and the element type of the
// bucket directory. One type covers both roles (regular and head) so that a
// bucket head embedded in the directory is a list node like any other.
//
// A node stores no user key: its split-order key determines it (keyOf), and
// a copy would cost a quarter of the record. Nor does it store a pointer: its
// successor is a link, so Node[uint32] holds none and its slabs are never
// scanned by the garbage collector. Byte map of Node[uint32] — 24 bytes:
//
//	 0  sokey  uint64           regular: bit-reversed hash; head: bit-reversed
//	                            bucket index. The list is sorted by (sokey,
//	                            rank), a head ranking before a regular node
//	 8  next   uint64           the link to the successor, and the mark bit
//	16  meta   uint32           bits 0-1 kind, bit 2 reclaimtest poison flag,
//	                            bits 3-31 a record's index, or the claimer's
//	                            slot while a head is linking
//	20  value  V                regular: the value
//
// A wider V grows the record from offset 20 (Node[[]byte] is 48 bytes, its
// value aligned to 24); sokey, next and meta, all a hop reads, stay in the
// first 20. At a stride of 24 bytes, two of every eight slab positions
// straddle a cache line. The epoch read path (lookup) reads a node's sokey
// and next, and its meta only on a sokey tie.
type Node[V any] struct {
	sokey uint64
	next  atomic.Uint64
	// meta is atomic because the poison flag is set and cleared by the test
	// pool wrappers while the kind sits beside it; on the hot path it is only
	// ever loaded (a plain MOV).
	meta  atomic.Uint32
	value V
}

// SetIndex implements arena.Indexed: it makes the record a regular node
// with index idx, once, before the allocator hands the record out.
func (n *Node[V]) SetIndex(idx uint32) {
	if idx > maxIndex {
		panic("hashmap: more than 2^29 records in one map")
	}
	n.meta.Store(kindRegular | idx<<idxShift)
}

// index is the record's index, its address in links.
func (n *Node[V]) index() uint32 { return n.meta.Load() >> idxShift }

// Key returns the node's key (meaningful for regular nodes only).
func (n *Node[V]) Key() int64 { return keyOf(n.sokey) }

// Value returns the node's value (meaningful for regular nodes only).
func (n *Node[V]) Value() V { return n.value }

func (n *Node[V]) kind() uint32 { return n.meta.Load() & kindMask }

// IsDummy reports whether the node is a bucket sentinel.
func (n *Node[V]) IsDummy() bool { return n.kind() == kindDummy }

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
// kind is read only on a sokey tie.
func (n *Node[V]) cmp(sokey uint64, rank int) int {
	switch {
	case n.sokey < sokey:
		return -1
	case n.sokey > sokey:
		return 1
	}
	return n.rank() - rank
}

// parentBucket returns the parent of bucket b in the split-order recursive
// initialisation scheme: b with its most significant set bit cleared.
func parentBucket(b uint64) uint64 {
	return b &^ (1 << (bits.Len64(b) - 1))
}

// initRegular (re)initialises a recycled record as a key/value node whose
// successor is next. The record's meta word, its kind and index, was set
// when its slab was numbered and stays.
func initRegular[V any](n *Node[V], value V, sokey uint64, next uint64) {
	n.value = value
	n.sokey = sokey
	n.next.Store(next)
}

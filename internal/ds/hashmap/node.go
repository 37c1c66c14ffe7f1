package hashmap

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/core"
)

// Node.meta holds the record's index above the reclaimtest poison flag. It is
// stored once, when the slab that numbers the record is reserved (SetIndex),
// and never changes: every record is a key/value node from then on. A bucket
// head is not a record: it is one link word in the directory (see Links).
const (
	// poisonBit is the reclaimtest freed-mark; the index sits above it.
	poisonBit uint32 = 1 << 0
	idxShift         = 1
	// maxIndex is the largest record index meta can hold: 2^31 records, 48
	// GiB of Node[uint32].
	maxIndex = 1<<(32-idxShift) - 1
)

// Links. A node names its successor by a link, a uint64 CASed as one word:
//
//	bit  0      markBit: the node that holds the link is marked — deleted,
//	            or replaced by the successor the link names. A marked link
//	            is never changed again
//	bit  1      recBit: the successor is a record, and bits 2-33 are its
//	            index in the allocator's directory (arena.Directory), bits
//	            34-40 zero
//	bits 2-40   without recBit: the bucket number of the successor head
//	            (below 2^39, the largest table), and 0 for the end of the
//	            list (bucket 0's head is nobody's successor)
//	bits 41-63  headState in a bucket head's word; zero in a record's link
//
// A bucket head is one such word and nothing else: its link to its
// successor, with its claim state in the top bits, where a record's link
// keeps zero. The state moves once through unclaimed -> claimed -> linked
// (Map.linkHead):
//
//	0            unclaimed: nobody has entered the bucket. Zero, because
//	             segment memory arrives zeroed, and so is the link: the
//	             zero word is an unclaimed head at the unmarked end of the
//	             list
//	claimedBy(t) worker slot t claimed the head and is splicing it in (it
//	             may already be on the list)
//	headLinked   the head is on the list. Heads are never removed, so
//	             traversals keep unprotected references to them: they are
//	             the stable re-entry points of every bucket
//
// A head is never marked. Every CAS on a link word keeps the state the word
// holds (casLink), so an insert or unlink behind a head does not undo a
// claim; on a record's link that costs nothing.
const (
	markBit  uint64 = 1 << 0
	recBit   uint64 = 1 << 1
	refShift        = 2

	stateShift        = 41
	headState  uint64 = (1<<(64-stateShift) - 1) << stateShift
	headLinked uint64 = 1 << stateShift
	// maxClaimSlot is the largest worker slot claimedBy can name.
	maxClaimSlot = 1<<(64-stateShift) - 3
)

// recLink is the unmarked link to the record with index idx.
func recLink(idx uint32) uint64 { return uint64(idx)<<refShift | recBit }

// headLink is the unmarked link to bucket b's head.
func headLink(b uint64) uint64 { return b << refShift }

// claimedBy is the state of a head that worker slot tid has claimed.
func claimedBy(tid int) uint64 { return uint64(tid+2) << stateShift }

// casLink swings the link word at pred from old to link, keeping the head
// state old carries (none, when pred is a record's link).
func casLink(pred *atomic.Uint64, old, link uint64) bool {
	return pred.CompareAndSwap(old, link|old&headState)
}

// Node is the hash map's managed record type: a key/value node of the
// split-ordered list.
//
// A node stores no user key: its split-order key determines it (keyOf), and
// a copy would cost a quarter of the record. Nor does it store a pointer: its
// successor is a link, so Node[uint32] holds none and its slabs are never
// scanned by the garbage collector. Byte map of Node[uint32] — 24 bytes:
//
//	 0  sokey  uint64           the bit-reversed hash. The list is sorted by
//	                            (sokey, rank), a head ranking before a node
//	 8  next   uint64           the link to the successor, and the mark bit
//	16  meta   uint32           bit 0 reclaimtest poison flag, bits 1-31 the
//	                            record's index
//	20  value  V                the value
//
// A wider V grows the record from offset 20 (Node[[]byte] is 48 bytes, its
// value aligned to 24); sokey and next, all a hop reads, stay in the first
// 16. At a stride of 24 bytes, two of every eight slab positions straddle a
// cache line.
type Node[V any] struct {
	sokey uint64
	next  atomic.Uint64
	// meta is atomic because the poison flag is set and cleared by the test
	// pool wrappers while the index sits beside it; on the hot path it is
	// only ever loaded (a plain MOV).
	meta  atomic.Uint32
	value V
}

// SetIndex implements arena.Indexed: it stores the record's index idx, once,
// before the allocator hands the record out.
func (n *Node[V]) SetIndex(idx uint32) {
	if idx > maxIndex {
		panic("hashmap: more than 2^31 records in one map")
	}
	n.meta.Store(idx << idxShift)
}

// index is the record's index, its address in links.
func (n *Node[V]) index() uint32 { return n.meta.Load() >> idxShift }

// Key returns the node's key.
func (n *Node[V]) Key() int64 { return keyOf(n.sokey) }

// Value returns the node's value.
func (n *Node[V]) Value() V { return n.value }

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

// Ranks order the two positions that can share a sokey: bucket b's head,
// and the node whose hash is b.
const (
	rankHead = iota
	rankRegular
)

// cmpPos places the list position (s, r) against (sokey, rank): negative if
// it comes before, zero if it is that position, positive if it comes after.
func cmpPos(s uint64, r int, sokey uint64, rank int) int {
	switch {
	case s < sokey:
		return -1
	case s > sokey:
		return 1
	}
	return r - rank
}

// parentBucket returns the parent of bucket b in the split-order recursive
// initialisation scheme: b with its most significant set bit cleared.
func parentBucket(b uint64) uint64 {
	return b &^ (1 << (bits.Len64(b) - 1))
}

// initRegular (re)initialises a recycled record as a key/value node whose
// successor is next. The record's index was set when its slab was numbered
// and stays.
func initRegular[V any](n *Node[V], value V, sokey uint64, next uint64) {
	n.value = value
	n.sokey = sokey
	n.next.Store(next)
}

package hashmap

import (
	"fmt"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/arena"
)

// TestNodeLayout pins the record layout the read path is built on: a node is
// its split-order key, link and meta word followed by the value, with no key
// and no padding for a 4-byte V. Adding a field, or reordering so that
// padding appears, fails here rather than in a benchmark.
func TestNodeLayout(t *testing.T) {
	var n Node[uint32]
	if got := unsafe.Sizeof(n); got != 24 {
		t.Errorf("Sizeof(Node[uint32]) = %d, want 24", got)
	}
	var w Node[[]byte]
	if got := unsafe.Sizeof(w); got != 48 {
		t.Errorf("Sizeof(Node[[]byte]) = %d, want 48", got)
	}
	// What a hop reads stays in front whatever V is.
	for name, end := range map[string]uintptr{
		"Node[uint32].sokey": unsafe.Offsetof(n.sokey) + unsafe.Sizeof(n.sokey),
		"Node[uint32].next":  unsafe.Offsetof(n.next) + unsafe.Sizeof(n.next),
		"Node[uint32].meta":  unsafe.Offsetof(n.meta) + unsafe.Sizeof(n.meta),
		"Node[[]byte].sokey": unsafe.Offsetof(w.sokey) + unsafe.Sizeof(w.sokey),
		"Node[[]byte].next":  unsafe.Offsetof(w.next) + unsafe.Sizeof(w.next),
		"Node[[]byte].meta":  unsafe.Offsetof(w.meta) + unsafe.Sizeof(w.meta),
	} {
		if end > 20 {
			t.Errorf("%s ends at byte %d, want <= 20", name, end)
		}
	}
}

// TestHeadLayout pins what the one-word bucket heads rest on: the memory a
// segment is made of is zeroed, so the zero word must read unclaimed and as
// the unmarked end of the list; the head state sits above every link a word
// can hold, so a link CAS that keeps the state (casLink) never mixes the
// two; and a directory element is one 8-byte word, so bucket b's head is
// found by arithmetic and costs 8 bytes.
func TestHeadLayout(t *testing.T) {
	var zero atomic.Uint64
	if w := zero.Load(); w&headState != 0 || w&(markBit|recBit) != 0 || !atEnd(w) {
		t.Errorf("the zero word %#x is not an unclaimed head at the unmarked end of the list", w)
	}
	// The largest links of either kind, marked, leave the state bits clear.
	largestBucket := uint64(1)<<(maxSegments-1) - 1
	for name, w := range map[string]uint64{
		"record": recLink(^uint32(0)) | markBit,
		"bucket": headLink(largestBucket) | markBit,
	} {
		if w&headState != 0 {
			t.Errorf("the largest %s link %#x overlaps the head state %#x", name, w, headState)
		}
	}
	if b := bucketOf(headLink(largestBucket) | markBit | claimedBy(maxClaimSlot)); b != largestBucket {
		t.Errorf("bucketOf a marked, claimed word of the largest bucket = %#x, want %#x", b, largestBucket)
	}
	// The states are distinct, nonzero and inside the state bits.
	states := map[uint64]string{headLinked: "linked"}
	for _, tid := range []int{0, 1, maxClaimSlot} {
		s := claimedBy(tid)
		if s&^headState != 0 || s == 0 || states[s] != "" {
			t.Errorf("claimedBy(%d) = %#x: outside the state bits, zero, or equal to %q", tid, s, states[s])
		}
		states[s] = fmt.Sprint("claimedBy ", tid)
	}
	var d atomic.Uint64
	d.Store(headLink(3) | claimedBy(5))
	if !casLink(&d, d.Load(), recLink(7)) || d.Load() != recLink(7)|claimedBy(5) {
		t.Errorf("casLink left %#x, want the new link with the claim kept", d.Load())
	}
	seg := newSegment(3)
	if len(seg.buckets) != 8 {
		t.Errorf("segment 3 holds %d heads, want 8", len(seg.buckets))
	}
	if stride := uintptr(unsafe.Pointer(&seg.buckets[1])) - uintptr(unsafe.Pointer(&seg.buckets[0])); stride != 8 {
		t.Errorf("segment stride %d bytes, want 8", stride)
	}
	// Link words keep the mark, the record tag and the reference apart: a
	// record's index survives the tag and the mark, and a head link is never
	// a record link.
	for _, idx := range []uint32{0, 1, maxIndex} {
		w := recLink(idx) | markBit
		if w&recBit == 0 || uint32(w>>refShift) != idx || w&^markBit != recLink(idx) {
			t.Errorf("recLink(%#x)|markBit = %#x does not keep mark, tag and index apart", idx, w)
		}
	}
	if w := headLink(largestBucket); w&(recBit|markBit) != 0 || w>>refShift != largestBucket {
		t.Errorf("headLink of the largest bucket = %#x: tag or mark set, or bucket lost", w)
	}
}

// TestSlabAlignment checks the assumption the layout rests on: the first
// record of a default bump slab starts a cache line.
func TestSlabAlignment(t *testing.T) {
	alloc := arena.NewBump[Node[uint32]](1, 0)
	if addr := uintptr(unsafe.Pointer(alloc.Allocate(0))); addr%64 != 0 {
		t.Errorf("first record of a default slab at %#x: not 64-byte aligned", addr)
	}
}

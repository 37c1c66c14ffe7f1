package hashmap

import (
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

// TestHeadLayout pins what embedding the bucket heads rests on: the memory a
// segment is made of is zeroed, so zero must read "unclaimed", and a zeroed
// link must be the unmarked end of the list; and a directory element is a
// Node and nothing more, so bucket b's head is found by arithmetic and costs
// the bytes the record does.
func TestHeadLayout(t *testing.T) {
	var n Node[uint32]
	if kindUnclaimed != 0 || n.kind() != kindUnclaimed || n.meta.Load() != 0 {
		t.Errorf("a zeroed Node has kind %d, meta %#x: want unclaimed (0)", n.kind(), n.meta.Load())
	}
	if w := n.next.Load(); w != headLink(0) || w&(markBit|recBit) != 0 {
		t.Errorf("a zeroed Node's link %#x is not the unmarked end of the list", w)
	}
	seg := newSegment[uint32](3)
	if len(seg.buckets) != 8 {
		t.Errorf("segment 3 holds %d heads, want 8", len(seg.buckets))
	}
	stride := uintptr(unsafe.Pointer(&seg.buckets[1])) - uintptr(unsafe.Pointer(&seg.buckets[0]))
	if stride != unsafe.Sizeof(n) || unsafe.Sizeof(seg.buckets[0]) != unsafe.Sizeof(n) {
		t.Errorf("segment element: stride %d, size %d, want Sizeof(Node[uint32]) = %d",
			stride, unsafe.Sizeof(seg.buckets[0]), unsafe.Sizeof(n))
	}
	if w := linkingBy(1<<22 + 5); w&kindMask != kindLinking || w&poisonBit != 0 || w>>slotShift != 1<<22+5 {
		t.Errorf("linkingBy: word %#x does not keep kind, poison flag and slot apart", w)
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
	if w := headLink(1<<39 - 1); w&(recBit|markBit) != 0 || w>>refShift != 1<<39-1 {
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

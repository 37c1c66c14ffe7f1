package bst

import (
	"testing"
	"unsafe"

	"repro/internal/arena"
)

// TestRecordLayout pins the record layout the search path is built on: a
// Record is one cache line and everything a search or Get reads of a node —
// kind, key, both children, update, value — lies in the first 48 bytes.
// Adding a field, or reordering so that padding appears, fails here rather
// than in a benchmark.
func TestRecordLayout(t *testing.T) {
	var r Record[uint32]
	if got := unsafe.Sizeof(r); got != 64 {
		t.Errorf("Sizeof(Record[uint32]) = %d, want 64", got)
	}
	var r64 Record[int64]
	if got := unsafe.Sizeof(r64); got != 64 {
		t.Errorf("Sizeof(Record[int64]) = %d, want 64", got)
	}
	for name, end := range map[string]uintptr{
		"meta (kind)": unsafe.Offsetof(r.meta) + unsafe.Sizeof(r.meta),
		"key":         unsafe.Offsetof(r.key) + unsafe.Sizeof(r.key),
		"left":        unsafe.Offsetof(r.left) + unsafe.Sizeof(r.left),
		"right":       unsafe.Offsetof(r.right) + unsafe.Sizeof(r.right),
		"update":      unsafe.Offsetof(r.update) + unsafe.Sizeof(r.update),
		"value":       unsafe.Offsetof(r.value) + unsafe.Sizeof(r.value),
		"int64 value": unsafe.Offsetof(r64.value) + unsafe.Sizeof(r64.value),
	} {
		if end > 48 {
			t.Errorf("Record.%s ends at offset %d: search-read fields must end by 48", name, end)
		}
	}
}

// TestSlabAlignment checks the assumption the layout rests on: the first
// record of a default bump slab starts a cache line.
func TestSlabAlignment(t *testing.T) {
	alloc := arena.NewBump[Record[uint32]](1, 0)
	if addr := uintptr(unsafe.Pointer(alloc.Allocate(0))); addr%64 != 0 {
		t.Errorf("first record of a default slab at %#x: not 64-byte aligned", addr)
	}
}

// TestRecordIsUnindexed: the BST links its records by pointer, so the bump
// allocator does not number them and keeps no directory of their slabs;
// Experiment 1's unpooled BST lets the garbage collector have what it frees.
func TestRecordIsUnindexed(t *testing.T) {
	alloc := arena.NewBump[Record[int64]](1, 0)
	for i := 0; i < arena.DefaultSlabRecords+1; i++ {
		alloc.Allocate(0)
	}
	if d := alloc.Directory(); d != nil {
		t.Fatalf("Bump[Record] keeps a directory of %d slabs", len(d.Slabs()))
	}
}

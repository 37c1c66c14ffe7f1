package bst

import (
	"testing"
	"unsafe"

	"repro/internal/arena"
)

// TestRecordLayout pins the record layout the search path is built on: a
// Record is two cache lines and everything a search reads of a node — kind,
// key, both children, update — lies in the first 48 bytes. Adding a field, or
// reordering so that padding appears, fails here rather than in a benchmark.
func TestRecordLayout(t *testing.T) {
	var r Record[uint32]
	if got := unsafe.Sizeof(r); got != 128 {
		t.Errorf("Sizeof(Record[uint32]) = %d, want 128", got)
	}
	if got := unsafe.Sizeof(Record[int64]{}); got != 128 {
		t.Errorf("Sizeof(Record[int64]) = %d, want 128", got)
	}
	for name, off := range map[string]uintptr{
		"meta (kind)": unsafe.Offsetof(r.meta), "key": unsafe.Offsetof(r.key), "left": unsafe.Offsetof(r.left),
		"right": unsafe.Offsetof(r.right), "update": unsafe.Offsetof(r.update),
	} {
		if off >= 48 {
			t.Errorf("Record[uint32].%s at offset %d: search-read fields must start below 48", name, off)
		}
	}
	if end := unsafe.Offsetof(r.value) + unsafe.Sizeof(r.value); end > 16 {
		t.Errorf("Record[uint32]: meta, outcome, value end at %d, want <= 16", end)
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

package arena

import (
	"sync"
	"testing"
	"unsafe"
)

type node struct {
	key   int64
	value int64
	left  *node
	right *node
}

func TestBumpAllocateDistinctRecords(t *testing.T) {
	b := NewBump[node](2, 8)
	seen := map[*node]bool{}
	for i := 0; i < 100; i++ {
		r := b.Allocate(0)
		if r == nil {
			t.Fatal("Allocate returned nil")
		}
		if seen[r] {
			t.Fatalf("record %p handed out twice", r)
		}
		seen[r] = true
	}
	if got := b.Stats().Allocated; got != 100 {
		t.Fatalf("Allocated=%d want 100", got)
	}
}

func TestBumpRecordsAreZeroed(t *testing.T) {
	b := NewBump[node](1, 4)
	for i := 0; i < 20; i++ {
		r := b.Allocate(0)
		if r.key != 0 || r.value != 0 || r.left != nil || r.right != nil {
			t.Fatalf("record %d not zeroed: %+v", i, *r)
		}
		r.key = int64(i)
		r.left = r
	}
}

func TestBumpAllocatedBytesTracksBumpMovement(t *testing.T) {
	b := NewBump[node](1, 16)
	const n = 1000
	for i := 0; i < n; i++ {
		b.Allocate(0)
	}
	want := int64(n) * int64(unsafe.Sizeof(node{}))
	if got := b.Stats().AllocatedBytes; got != want {
		t.Fatalf("AllocatedBytes=%d want %d", got, want)
	}
}

func TestBumpDeallocateOnlyCounts(t *testing.T) {
	b := NewBump[node](1, 8)
	r := b.Allocate(0)
	b.Deallocate(0, r)
	b.Deallocate(0, nil) // must be a no-op, not a panic
	s := b.Stats()
	if s.Deallocated != 1 {
		t.Fatalf("Deallocated=%d want 1", s.Deallocated)
	}
	if s.Allocated != 1 {
		t.Fatalf("Allocated=%d want 1", s.Allocated)
	}
}

func TestBumpPerThreadIsolation(t *testing.T) {
	const threads = 4
	const perThread = 5000
	b := NewBump[node](threads, 64)
	var wg sync.WaitGroup
	results := make([]map[*node]bool, threads)
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			m := map[*node]bool{}
			for i := 0; i < perThread; i++ {
				m[b.Allocate(tid)] = true
			}
			results[tid] = m
		}(tid)
	}
	wg.Wait()
	all := map[*node]bool{}
	total := 0
	for _, m := range results {
		for r := range m {
			if all[r] {
				t.Fatalf("record %p handed out by two threads", r)
			}
			all[r] = true
			total++
		}
	}
	if total != threads*perThread {
		t.Fatalf("total distinct records %d want %d", total, threads*perThread)
	}
	if got := b.Stats().Allocated; got != int64(threads*perThread) {
		t.Fatalf("Allocated=%d want %d", got, threads*perThread)
	}
}

func TestBumpPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBump[node](0, 8)
}

func TestHeapAllocate(t *testing.T) {
	h := NewHeap[node](2)
	seen := map[*node]bool{}
	for i := 0; i < 50; i++ {
		r := h.Allocate(i % 2)
		if r == nil || seen[r] {
			t.Fatalf("bad record %p at %d", r, i)
		}
		seen[r] = true
	}
	h.Deallocate(0, nil)
	h.Deallocate(0, &node{})
	s := h.Stats()
	if s.Allocated != 50 {
		t.Fatalf("Allocated=%d want 50", s.Allocated)
	}
	if s.Deallocated != 1 {
		t.Fatalf("Deallocated=%d want 1", s.Deallocated)
	}
	if s.AllocatedBytes != 50*int64(unsafe.Sizeof(node{})) {
		t.Fatalf("AllocatedBytes=%d", s.AllocatedBytes)
	}
}

func TestHeapPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHeap[node](0)
}

// irec is an Indexed record: it stores the index the allocator gives it.
type irec struct {
	idx uint32
	key int64
}

func (r *irec) SetIndex(idx uint32) { r.idx = idx }

// TestDirectoryResolvesEveryRecord: every record every thread allocates,
// across several slabs each, carries a distinct index that resolves back to
// the record itself, and the directory holds exactly the slabs reserved.
func TestDirectoryResolvesEveryRecord(t *testing.T) {
	const (
		threads = 3
		perThr  = 2*DefaultSlabRecords + 100
	)
	b := NewBump[irec](threads, 0)
	dir := b.Directory()
	if dir == nil {
		t.Fatal("Bump of an Indexed type has no directory")
	}
	recs := make([][]*irec, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perThr; i++ {
				r := b.Allocate(tid)
				r.key = int64(tid*perThr + i)
				recs[tid] = append(recs[tid], r)
			}
		}(tid)
	}
	wg.Wait()
	seen := map[uint32]bool{}
	slabs := dir.Slabs()
	for tid := range recs {
		for _, r := range recs[tid] {
			if seen[r.idx] {
				t.Fatalf("index %#x handed to two records", r.idx)
			}
			seen[r.idx] = true
			if got := Record(slabs, r.idx); got != r {
				t.Fatalf("thread %d key %d: index %#x resolves to key %d", tid, r.key, r.idx, got.key)
			}
		}
	}
	if got, want := len(slabs), threads*3; got != want {
		t.Fatalf("directory holds %d slabs, want %d", got, want)
	}
}

// TestUnindexedHasNoDirectory: a record type that does not store its index
// is not numbered, whatever its slab size.
func TestUnindexedHasNoDirectory(t *testing.T) {
	for _, slab := range []int{0, 8} {
		b := NewBump[node](1, slab)
		for i := 0; i < 3*DefaultSlabRecords; i++ {
			b.Allocate(0)
		}
		if b.Directory() != nil {
			t.Fatalf("slab size %d: Bump[node] keeps a directory", slab)
		}
	}
}

// TestIndexedSlabSize: indices put the slab in their high bits, so an
// Indexed type takes no slab size but DefaultSlabRecords.
func TestIndexedSlabSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBump accepted an Indexed type with 8-record slabs")
		}
	}()
	NewBump[irec](1, 8)
}

package pool

import (
	"sync"
	"testing"

	"repro/internal/arena"
	"repro/internal/blockbag"
)

type rec struct {
	id      int
	payload [4]int64
}

func newPool(threads int, opts ...Option) (*Pool[rec], *arena.Bump[rec]) {
	alloc := arena.NewBump[rec](threads, 256)
	return New(threads, alloc, opts...), alloc
}

func TestPoolAllocateFallsThroughToAllocator(t *testing.T) {
	p, alloc := newPool(1)
	r := p.Allocate(0)
	if r == nil {
		t.Fatal("nil record")
	}
	if alloc.Stats().Allocated != 1 {
		t.Fatalf("allocator served %d records, want 1", alloc.Stats().Allocated)
	}
	if p.Stats().FromAllocator != 1 {
		t.Fatalf("FromAllocator=%d want 1", p.Stats().FromAllocator)
	}
}

func TestPoolReusesFreedRecords(t *testing.T) {
	p, alloc := newPool(1)
	r1 := p.Allocate(0)
	p.Free(0, r1)
	r2 := p.Allocate(0)
	if r1 != r2 {
		t.Fatalf("expected pooled record %p to be reused, got %p", r1, r2)
	}
	s := p.Stats()
	if s.Reused != 1 || s.Freed != 1 {
		t.Fatalf("stats %+v", s)
	}
	if alloc.Stats().Allocated != 1 {
		t.Fatalf("allocator allocated %d records, want 1", alloc.Stats().Allocated)
	}
}

func TestPoolSpillsToSharedBagAndRefills(t *testing.T) {
	p, _ := newPool(2, WithMaxPrivateBlocks(1))
	// Thread 0 frees enough records to overflow its private bag.
	n := 4 * blockbag.BlockSize
	recs := make([]*rec, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, p.Allocate(0))
	}
	for _, r := range recs {
		p.Free(0, r)
	}
	if p.SharedBlocks() == 0 {
		t.Fatal("expected overflow blocks on the shared bag")
	}
	if p.Stats().ToShared == 0 {
		t.Fatal("ToShared counter did not move")
	}
	// Thread 1 should be able to reuse records that thread 0 freed.
	before := p.Stats().FromShared
	seen := map[*rec]bool{}
	for _, r := range recs {
		seen[r] = true
	}
	reusedFromOther := false
	for i := 0; i < n; i++ {
		r := p.Allocate(1)
		if seen[r] {
			reusedFromOther = true
			break
		}
	}
	if !reusedFromOther {
		t.Fatal("thread 1 never reused a record freed by thread 0")
	}
	if p.Stats().FromShared == before {
		t.Fatal("FromShared counter did not move")
	}
}

func TestPoolFreeBlocks(t *testing.T) {
	p, _ := newPool(1, WithMaxPrivateBlocks(100))
	// Build a detached chain of two full blocks using a scratch bag.
	bp := blockbag.NewBlockPool[rec](4)
	bag := blockbag.New(bp)
	n := 2*blockbag.BlockSize + 3
	for i := 0; i < n; i++ {
		bag.Add(&rec{id: i})
	}
	chain := bag.DetachAllFullBlocks() // the partial head stays behind
	if chain == nil {
		t.Fatal("expected a detached chain")
	}
	moved := blockbag.ChainLen(chain)
	p.FreeBlocks(0, chain)
	p.FreeBlocks(0, nil) // no-op
	if got := p.Stats().Freed; got != int64(moved) {
		t.Fatalf("Freed=%d want %d", got, moved)
	}
	// All the freed records must now be allocatable before the allocator is
	// consulted again.
	reused := 0
	for i := 0; i < moved; i++ {
		p.Allocate(0)
		reused++
	}
	if got := p.Stats().Reused; got != int64(reused) {
		t.Fatalf("Reused=%d want %d", got, reused)
	}
}

// A whole limbo bag arrives as its partial head block followed by its full
// blocks. The pool merges the head's records into the thread's bag without
// allocating a block, and the emptied block goes to the thread's block pool.
func TestPoolFreeBlocksPartialFirstBlock(t *testing.T) {
	for _, n := range []int{0, 3, blockbag.BlockSize - 1, 2*blockbag.BlockSize + 3, 3*blockbag.BlockSize - 2} {
		p, _ := newPool(1, WithMaxPrivateBlocks(100))
		bp := p.BlockPool(0)
		// Records already pooled, so that the merge can overflow the head.
		for i := 0; i < blockbag.BlockSize-2; i++ {
			p.Free(0, &rec{id: -i})
		}
		bag := blockbag.New(bp)
		for i := 0; i < n; i++ {
			bag.Add(&rec{id: i})
		}
		var chain *blockbag.Block[rec]
		if n == 0 {
			chain = bp.Get() // an empty first block
		} else {
			chain = bag.DetachAll()
		}
		before, allocated := p.Stats().Freed, bp.Allocated()
		p.FreeBlocks(0, chain)
		if got := p.Stats().Freed - before; got != int64(n) {
			t.Fatalf("n=%d: Freed grew by %d", n, got)
		}
		if bp.Allocated() != allocated {
			t.Fatalf("n=%d: FreeBlocks allocated %d blocks", n, bp.Allocated()-allocated)
		}
		seen := map[*rec]bool{}
		for i := 0; i < n+blockbag.BlockSize-2; i++ {
			r := p.Allocate(0)
			if seen[r] {
				t.Fatalf("n=%d: record %d allocated twice", n, r.id)
			}
			seen[r] = true
		}
		if got := p.Stats().FromAllocator; got != 0 {
			t.Fatalf("n=%d: %d records came from the allocator, want every one pooled", n, got)
		}
	}
}

func TestPoolConcurrentFreeAllocate(t *testing.T) {
	const threads = 8
	const iters = 3000
	p, _ := newPool(threads, WithMaxPrivateBlocks(1))
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			local := make([]*rec, 0, 64)
			for i := 0; i < iters; i++ {
				local = append(local, p.Allocate(tid))
				if len(local) > 32 {
					for _, r := range local {
						p.Free(tid, r)
					}
					local = local[:0]
				}
			}
			for _, r := range local {
				p.Free(tid, r)
			}
		}(tid)
	}
	wg.Wait()
	s := p.Stats()
	if s.Freed == 0 || s.Reused == 0 {
		t.Fatalf("expected reuse under concurrency, got %+v", s)
	}
}

func TestDiscardCountsOnly(t *testing.T) {
	d := NewDiscard[rec](1)
	bp := d.BlockPool(0)
	bag := blockbag.New(bp)
	for i := 0; i < blockbag.BlockSize+10; i++ {
		bag.Add(&rec{id: i})
	}
	chain := bag.DetachAll()
	allocated := bp.Allocated()
	d.FreeBlocks(0, chain)
	if d.Freed() != blockbag.BlockSize+10 {
		t.Fatalf("Freed=%d want %d", d.Freed(), blockbag.BlockSize+10)
	}
	// The chain's two blocks went back to the lent pool: the next two Gets
	// reuse them.
	bp.Get()
	bp.Get()
	if bp.Allocated() != allocated {
		t.Fatalf("Discard kept %d of the chain's blocks", 2-(bp.Allocated()-allocated))
	}
}

func TestNewPoolValidation(t *testing.T) {
	if !panics(func() { New[rec](0, arena.NewBump[rec](1, 8)) }) {
		t.Fatal("expected panic for n=0")
	}
	if !panics(func() { New[rec](1, nil) }) {
		t.Fatal("expected panic for nil allocator")
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

package blockbag

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

type rec struct{ id int }

func mkRecs(n int) []*rec {
	out := make([]*rec, n)
	for i := range out {
		out[i] = &rec{id: i}
	}
	return out
}

func TestBagAddRemoveSingle(t *testing.T) {
	b := New[rec](nil)
	if !b.Empty() || b.Len() != 0 {
		t.Fatalf("new bag not empty: len=%d", b.Len())
	}
	r := &rec{id: 1}
	b.Add(r)
	if b.Len() != 1 || b.Empty() {
		t.Fatalf("after Add: len=%d", b.Len())
	}
	got, ok := b.Remove()
	if !ok || got != r {
		t.Fatalf("Remove returned %v, %v", got, ok)
	}
	if _, ok := b.Remove(); ok {
		t.Fatal("Remove on empty bag returned ok")
	}
}

func TestBagAddNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Add(nil)")
		}
	}()
	New[rec](nil).Add(nil)
}

func TestBagHeadBlockInvariant(t *testing.T) {
	b := New[rec](nil)
	recs := mkRecs(5*BlockSize + 17)
	for i, r := range recs {
		b.Add(r)
		if b.head.n >= BlockSize {
			t.Fatalf("head block reached %d records after %d adds", b.head.n, i+1)
		}
		for blk := b.head.next; blk != nil; blk = blk.next {
			if !blk.Full() {
				t.Fatalf("non-head block has %d records after %d adds", blk.n, i+1)
			}
		}
	}
	if b.Len() != len(recs) {
		t.Fatalf("len=%d want %d", b.Len(), len(recs))
	}
	// Drain and verify the invariant holds throughout removal too.
	seen := map[*rec]bool{}
	for {
		r, ok := b.Remove()
		if !ok {
			break
		}
		if seen[r] {
			t.Fatalf("record %d returned twice", r.id)
		}
		seen[r] = true
		for blk := b.head.next; blk != nil; blk = blk.next {
			if !blk.Full() {
				t.Fatalf("non-head block has %d records during removal", blk.n)
			}
		}
	}
	if len(seen) != len(recs) {
		t.Fatalf("drained %d records, want %d", len(seen), len(recs))
	}
}

func TestBagContentPreservation(t *testing.T) {
	// Property: any sequence of adds followed by a full drain returns exactly
	// the added multiset.
	f := func(sizes []uint8) bool {
		b := New[rec](nil)
		want := map[*rec]bool{}
		for range sizes {
			n := int(sizes[0]%7) + 1
			for i := 0; i < n; i++ {
				r := &rec{id: len(want)}
				want[r] = true
				b.Add(r)
			}
		}
		got := map[*rec]bool{}
		b.Drain(func(r *rec) { got[r] = true })
		if len(got) != len(want) {
			return false
		}
		for r := range want {
			if !got[r] {
				return false
			}
		}
		return b.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBagRandomAddRemoveQuick(t *testing.T) {
	// Property: under a random interleaving of adds and removes the bag's
	// length always matches a reference counter and removed records are a
	// subset of added records with no duplicates.
	f := func(ops []bool, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New[rec](nil)
		live := map[*rec]bool{}
		next := 0
		for _, add := range ops {
			if add || len(live) == 0 {
				r := &rec{id: next}
				next++
				live[r] = true
				b.Add(r)
			} else {
				r, ok := b.Remove()
				if !ok {
					return false
				}
				if !live[r] {
					return false
				}
				delete(live, r)
			}
			if b.Len() != len(live) {
				return false
			}
			_ = rng
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMoveFullBlocksTo(t *testing.T) {
	pool := NewBlockPool[rec](0)
	src := New(pool)
	dst := New(pool)
	n := 3*BlockSize + 10
	for _, r := range mkRecs(n) {
		src.Add(r)
	}
	moved := src.MoveFullBlocksTo(dst)
	if moved != 3*BlockSize {
		t.Fatalf("moved %d records, want %d", moved, 3*BlockSize)
	}
	if src.Len() != 10 {
		t.Fatalf("src len=%d want 10", src.Len())
	}
	if dst.Len() != 3*BlockSize {
		t.Fatalf("dst len=%d want %d", dst.Len(), 3*BlockSize)
	}
	// The destination must keep the head-partial/others-full invariant.
	for blk := dst.head.next; blk != nil; blk = blk.next {
		if !blk.Full() {
			t.Fatalf("dst non-head block has %d records", blk.n)
		}
	}
}

func TestMoveAllTo(t *testing.T) {
	src := New[rec](nil)
	dst := New[rec](nil)
	recs := mkRecs(2*BlockSize + 5)
	for _, r := range recs {
		src.Add(r)
	}
	moved := src.MoveAllTo(dst)
	if moved != len(recs) {
		t.Fatalf("moved %d want %d", moved, len(recs))
	}
	if !src.Empty() {
		t.Fatalf("src not empty: %d", src.Len())
	}
	if dst.Len() != len(recs) {
		t.Fatalf("dst len=%d want %d", dst.Len(), len(recs))
	}
}

func TestIteratorVisitsEverything(t *testing.T) {
	b := New[rec](nil)
	recs := mkRecs(2*BlockSize + 77)
	for _, r := range recs {
		b.Add(r)
	}
	seen := map[*rec]bool{}
	for it := b.Begin(); !it.Done(); it.Next() {
		if seen[it.Get()] {
			t.Fatal("iterator visited a record twice")
		}
		seen[it.Get()] = true
	}
	if len(seen) != len(recs) {
		t.Fatalf("iterator visited %d records, want %d", len(seen), len(recs))
	}
}

func TestIteratorOnEmptyBag(t *testing.T) {
	b := New[rec](nil)
	if it := b.Begin(); !it.Done() {
		t.Fatal("iterator on empty bag is not Done")
	}
}

func TestIteratorSwapAndDetach(t *testing.T) {
	// Simulate DEBRA+'s partition: mark some records as "protected", swap
	// them to the front, detach full blocks after the partition point, and
	// check that no protected record was detached.
	b := New[rec](nil)
	n := 4*BlockSize + 100
	recs := mkRecs(n)
	protected := map[*rec]bool{}
	for i, r := range recs {
		b.Add(r)
		if i%97 == 0 {
			protected[r] = true
		}
	}
	it1 := b.Begin()
	it2 := b.Begin()
	for ; !it1.Done(); it1.Next() {
		if protected[it1.Get()] {
			it1.Swap(&it2)
			it2.Next()
		}
	}
	chain := b.DetachFullBlocksAfter(it2)
	for blk := chain; blk != nil; blk = blk.Next() {
		if !blk.Full() {
			t.Fatalf("detached block with %d records", blk.Len())
		}
		for i := 0; i < blk.Len(); i++ {
			if protected[blk.Record(i)] {
				t.Fatalf("protected record %d was detached", blk.Record(i).id)
			}
		}
	}
	// Every protected record must still be in the bag.
	for r := range protected {
		if !b.Contains(r) {
			t.Fatalf("protected record %d missing from bag", r.id)
		}
	}
	// Total conservation.
	if got := b.Len() + ChainLen(chain); got != n {
		t.Fatalf("records lost: bag %d + chain %d = %d, want %d", b.Len(), ChainLen(chain), got, n)
	}
}

func TestDetachAfterDoneIteratorDetachesNothing(t *testing.T) {
	b := New[rec](nil)
	for _, r := range mkRecs(3 * BlockSize) {
		b.Add(r)
	}
	it := b.Begin()
	for ; !it.Done(); it.Next() {
	}
	if chain := b.DetachFullBlocksAfter(it); chain != nil {
		t.Fatalf("Done iterator detached %d records", ChainLen(chain))
	}
	if b.Len() != 3*BlockSize {
		t.Fatalf("bag lost records: %d", b.Len())
	}
}

func TestBlockPoolRecycles(t *testing.T) {
	p := NewBlockPool[rec](4)
	var blocks []*Block[rec]
	for i := 0; i < 8; i++ {
		blocks = append(blocks, p.Get())
	}
	if p.Allocated() != 8 {
		t.Fatalf("allocated=%d want 8", p.Allocated())
	}
	for _, b := range blocks {
		p.Put(b)
	}
	for i := 0; i < 4; i++ {
		p.Get()
	}
	if p.Recycled() != 4 {
		t.Fatalf("recycled=%d want 4", p.Recycled())
	}
	if p.Allocated() != 8 {
		t.Fatalf("allocated=%d want 8 (pool should have served from cache)", p.Allocated())
	}
}

func TestBlockPoolPutNil(t *testing.T) {
	p := NewBlockPool[rec](1)
	p.Put(nil) // must not panic
}

func TestBagReducesBlockAllocationsViaPool(t *testing.T) {
	// Repeatedly filling and draining a bag through a shared block pool must
	// allocate only a handful of blocks (the paper reports >99.9% reuse).
	pool := NewBlockPool[rec](16)
	b := New(pool)
	recs := mkRecs(4 * BlockSize)
	for round := 0; round < 50; round++ {
		for _, r := range recs {
			b.Add(r)
		}
		b.Drain(nil)
	}
	if pool.Allocated() > 16 {
		t.Fatalf("allocated %d blocks across 50 rounds; expected reuse to cap this at <=16", pool.Allocated())
	}
}

func TestAddBlockRejectsPartialBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for AddBlock of partial block")
		}
	}()
	b := New[rec](nil)
	blk := &Block[rec]{}
	blk.push(&rec{})
	b.AddBlock(blk)
}

func TestSharedStackPushPop(t *testing.T) {
	var s SharedStack[rec]
	if s.Pop() != nil {
		t.Fatal("pop on empty stack returned a block")
	}
	mk := func(base int) *Block[rec] {
		blk := &Block[rec]{}
		for i := 0; i < BlockSize; i++ {
			blk.push(&rec{id: base + i})
		}
		return blk
	}
	b1, b2, b3 := mk(0), mk(1000), mk(2000)
	s.Push(b1)
	s.Push(b2)
	s.Push(b3)
	if s.Blocks() != 3 {
		t.Fatalf("blocks=%d want 3", s.Blocks())
	}
	got := map[*Block[rec]]bool{}
	for i := 0; i < 3; i++ {
		blk := s.Pop()
		if blk == nil {
			t.Fatalf("pop %d returned nil", i)
		}
		got[blk] = true
	}
	if !got[b1] || !got[b2] || !got[b3] {
		t.Fatal("pop did not return all pushed blocks")
	}
	if s.Blocks() != 0 {
		t.Fatalf("blocks=%d want 0", s.Blocks())
	}
}

func TestSharedStackPopAll(t *testing.T) {
	var s SharedStack[rec]
	if s.PopAll() != nil {
		t.Fatal("PopAll on empty stack returned a chain")
	}
	for i := 0; i < 5; i++ {
		blk := &Block[rec]{}
		for j := 0; j < BlockSize; j++ {
			blk.push(&rec{id: i*BlockSize + j})
		}
		s.Push(blk)
	}
	chain := s.PopAll()
	if n := ChainLen(chain); n != 5*BlockSize {
		t.Fatalf("chain holds %d records, want %d", n, 5*BlockSize)
	}
	if s.Blocks() != 0 {
		t.Fatalf("blocks=%d want 0 after PopAll", s.Blocks())
	}
	// Push the chain back and pop again.
	s.PushChain(chain)
	if s.Blocks() != 5 {
		t.Fatalf("blocks=%d want 5 after PushChain", s.Blocks())
	}
}

func TestSharedStackConcurrent(t *testing.T) {
	// Hammer the shared stack from many goroutines; every block pushed must
	// be popped exactly once across the whole run.
	const (
		workers   = 8
		perWorker = 200
	)
	var s SharedStack[rec]
	var mu sync.Mutex
	popped := map[*Block[rec]]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]*Block[rec], 0, perWorker)
			for i := 0; i < perWorker; i++ {
				blk := &Block[rec]{}
				for j := 0; j < BlockSize; j++ {
					blk.push(&rec{id: j})
				}
				s.Push(blk)
				if i%3 == 0 {
					if got := s.Pop(); got != nil {
						local = append(local, got)
					}
				}
			}
			mu.Lock()
			for _, blk := range local {
				popped[blk]++
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	// Drain the remainder.
	for {
		blk := s.Pop()
		if blk == nil {
			break
		}
		popped[blk]++
	}
	if len(popped) != workers*perWorker {
		t.Fatalf("popped %d distinct blocks, want %d", len(popped), workers*perWorker)
	}
	for blk, n := range popped {
		if n != 1 {
			t.Fatalf("block %p popped %d times", blk, n)
		}
	}
	if s.Blocks() != 0 {
		t.Fatalf("stack not empty at end: %d", s.Blocks())
	}
}

package blockbag

import (
	"fmt"
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

// drain removes every record from b, one Remove at a time, invoking fn on
// each; the emptied blocks go to the bag's block pool.
func drain(b *Bag[rec], fn func(*rec)) {
	for r, ok := b.Remove(); ok; r, ok = b.Remove() {
		fn(r)
	}
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
		drain(b, func(r *rec) { got[r] = true })
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

// checkShape fails unless the bag's block chain matches its counters: the
// head is partial, every other block full, and FullBlocks (computed from the
// size) equals the walked block count less the head.
func checkShape(t *testing.T, b *Bag[rec], step string) {
	t.Helper()
	if b.head.n >= BlockSize {
		t.Fatalf("%s: head block holds %d records", step, b.head.n)
	}
	n := b.head.n
	for blk := b.head.next; blk != nil; blk = blk.next {
		if !blk.Full() {
			t.Fatalf("%s: non-head block holds %d records", step, blk.n)
		}
		n += blk.n
	}
	if n != b.Len() {
		t.Fatalf("%s: blocks hold %d records, Len = %d", step, n, b.Len())
	}
	if b.FullBlocks() != b.LenBlocks()-1 {
		t.Fatalf("%s: FullBlocks = %d, LenBlocks = %d", step, b.FullBlocks(), b.LenBlocks())
	}
}

func TestFullBlocksTracksChain(t *testing.T) {
	pool := NewBlockPool[rec](0)
	b := New(pool)
	checkShape(t, b, "new")
	for _, r := range mkRecs(2*BlockSize + 3) {
		b.Add(r)
	}
	checkShape(t, b, "add")
	for i := 0; i < 5; i++ {
		b.Remove()
	}
	// The head emptied and was replaced by a full block popped to partial.
	checkShape(t, b, "remove across a block boundary")
	full := New(pool)
	for _, r := range mkRecs(BlockSize) {
		full.Add(r)
	}
	b.AddBlock(full.TakeFullBlock())
	checkShape(t, b, "AddBlock")
	b.TakeFullBlock()
	checkShape(t, b, "TakeFullBlock")
	b.DetachAll()
	checkShape(t, b, "DetachAll")
	for _, r := range mkRecs(BlockSize) {
		b.Add(r)
	}
	if b.head.n != 0 {
		t.Fatalf("head holds %d records after exactly one block of adds", b.head.n)
	}
	b.DetachAll()
	checkShape(t, b, "DetachAll with an empty head")
}

func TestDetachAll(t *testing.T) {
	for _, n := range []int{0, 1, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 10} {
		b := New[rec](nil)
		for _, r := range mkRecs(n) {
			b.Add(r)
		}
		head := b.head
		chain := b.DetachAll()
		if !b.Empty() || b.LenBlocks() != 1 || b.head.n != 0 {
			t.Fatalf("n=%d: bag left with %d records in %d blocks", n, b.Len(), b.LenBlocks())
		}
		if got := ChainLen(chain); got != n {
			t.Fatalf("n=%d: chain holds %d records", n, got)
		}
		for blk := chain; blk != nil; blk = blk.next {
			if blk.n == 0 {
				t.Fatalf("n=%d: an empty block travelled in the chain", n)
			}
			if blk != chain && !blk.Full() {
				t.Fatalf("n=%d: a block after the first holds %d records", n, blk.n)
			}
		}
		if head.n == 0 && b.head != head {
			t.Fatalf("n=%d: the empty head block left the bag", n)
		}
		if head.n > 0 && chain != head {
			t.Fatalf("n=%d: the partial head block is not first in the chain", n)
		}
		b.Add(&rec{})
		if b.Len() != 1 {
			t.Fatalf("n=%d: bag unusable after DetachAll", n)
		}
	}
}

func TestMerge(t *testing.T) {
	// block returns a detached block holding k fresh records.
	block := func(k int) *Block[rec] {
		blk := &Block[rec]{}
		for _, r := range mkRecs(k) {
			blk.push(r)
		}
		return blk
	}
	cases := []struct{ have, merge int }{
		{0, 0}, {0, 3}, {10, 3}, {BlockSize - 4, 3}, {BlockSize - 3, 3},
		{200, 200}, {BlockSize + 7, BlockSize - 1}, {5, BlockSize},
	}
	for _, c := range cases {
		pool := NewBlockPool[rec](0)
		b := New(pool)
		for _, r := range mkRecs(c.have) {
			b.Add(r)
		}
		blk := block(c.merge)
		want := map[*rec]bool{}
		for i := 0; i < blk.n; i++ {
			want[blk.recs[i]] = true
		}
		cached, allocated := len(pool.blocks), pool.Allocated()
		b.Merge(blk)
		checkShape(t, b, "Merge")
		if b.Len() != c.have+c.merge {
			t.Fatalf("%+v: Len = %d", c, b.Len())
		}
		if pool.Allocated() != allocated {
			t.Fatalf("%+v: Merge allocated a block", c)
		}
		if returned := len(pool.blocks) - cached; c.merge < BlockSize && c.have%BlockSize+c.merge < BlockSize && returned != 1 {
			t.Fatalf("%+v: %d blocks returned to the pool, want the emptied one", c, returned)
		}
		drain(b, func(r *rec) { delete(want, r) })
		if len(want) != 0 {
			t.Fatalf("%+v: %d merged records lost", c, len(want))
		}
	}
}

// checkChain fails unless chain is shaped as DetachAll returns a bag: no
// empty block, and every block after the first full.
func checkChain(t *testing.T, chain *Block[rec], step string) {
	t.Helper()
	for blk := chain; blk != nil; blk = blk.next {
		if blk.n == 0 {
			t.Fatalf("%s: an empty block travelled in the chain", step)
		}
		if blk != chain && !blk.Full() {
			t.Fatalf("%s: a block after the first holds %d records", step, blk.n)
		}
	}
}

// Sift leaves in the bag exactly the records keep accepts and returns every
// other record in one chain, whatever the bag's shape and wherever the kept
// records sit: none, one, all, a partial head's worth, more than a block's.
func TestSiftLeavesOnlyKept(t *testing.T) {
	sizes := []int{0, 1, BlockSize - 1, BlockSize, BlockSize + 1, 2*BlockSize + 7, 4*BlockSize + 100}
	every := []int{0, 1, 2, 3, 97, 300}
	for _, n := range sizes {
		for _, k := range every {
			step := fmt.Sprintf("n=%d every=%d", n, k)
			pool := NewBlockPool[rec](64)
			b := New(pool)
			kept := map[*rec]bool{}
			for i, r := range mkRecs(n) {
				b.Add(r)
				if k > 0 && i%k == 0 {
					kept[r] = true
				}
			}
			chain := b.Sift(func(r *rec) bool { return kept[r] })
			checkChain(t, chain, step)
			checkShape(t, b, step)
			if b.Len() != len(kept) {
				t.Fatalf("%s: bag holds %d records, want the %d kept", step, b.Len(), len(kept))
			}
			for r := range kept {
				if !b.Contains(r) {
					t.Fatalf("%s: kept record %d left the bag", step, r.id)
				}
			}
			seen := map[*rec]bool{}
			for blk := chain; blk != nil; blk = blk.next {
				for i := 0; i < blk.n; i++ {
					r := blk.recs[i]
					if kept[r] || seen[r] {
						t.Fatalf("%s: record %d in the chain is kept or repeated", step, r.id)
					}
					seen[r] = true
				}
			}
			if len(seen) != n-len(kept) {
				t.Fatalf("%s: chain holds %d records, want %d", step, len(seen), n-len(kept))
			}
		}
	}
}

// A bag of which keep accepts nothing leaves whole: its blocks travel as they
// were, and the block pool gives the bag its new head and takes nothing back.
func TestSiftKeepingNothingDetachesWhole(t *testing.T) {
	b := New[rec](nil)
	recs := mkRecs(3*BlockSize + 5)
	for _, r := range recs {
		b.Add(r)
	}
	head, second := b.head, b.head.next
	allocated := b.pool.Allocated()
	chain := b.Sift(func(*rec) bool { return false })
	if chain != head || chain.next != second || chain.recs[0] != recs[3*BlockSize] {
		t.Fatal("a bag of unkept records did not leave as its own blocks")
	}
	if ChainLen(chain) != len(recs) || !b.Empty() {
		t.Fatalf("chain holds %d records and the bag %d", ChainLen(chain), b.Len())
	}
	if got := b.pool.Allocated() - allocated; got != 1 || len(b.pool.blocks) != 0 {
		t.Fatalf("Sift took %d blocks (want the bag's new head alone) and pooled %d", got, len(b.pool.blocks))
	}
}

// A bag keep accepts whole stays as it was in content and returns no chain.
func TestSiftKeepingEverythingDetachesNothing(t *testing.T) {
	b := New[rec](nil)
	for _, r := range mkRecs(3 * BlockSize) {
		b.Add(r)
	}
	if chain := b.Sift(func(*rec) bool { return true }); chain != nil {
		t.Fatalf("keeping everything detached %d records", ChainLen(chain))
	}
	if b.Len() != 3*BlockSize {
		t.Fatalf("bag lost records: %d", b.Len())
	}
	checkShape(t, b, "kept everything")
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
		drain(b, func(*rec) {})
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

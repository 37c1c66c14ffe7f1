// Package blockbag implements the block bags used by DEBRA's limbo bags and
// object pools (Section 4 of the paper, "Block bags").
//
// A block bag is a singly-linked list of blocks, each holding up to B record
// pointers. The head block always contains fewer than B records and every
// subsequent block contains exactly B records. With this invariant, adding a
// record, removing a record, and moving all full blocks from one bag to
// another are all constant-time operations. Operating on whole blocks rather
// than individual records is what makes DEBRA's epoch rotation and pool
// transfers cheap.
//
// A bag is owned by a single thread and is NOT safe for concurrent use; the
// lock-free SharedStack type is provided for the one place the paper shares
// blocks between threads (the shared portion of the object pool).
package blockbag

import "fmt"

// BlockSize is the number of records stored per block (the paper uses
// B = 256 in its experiments).
const BlockSize = 256

// Block is a fixed-capacity container of record pointers, chained into bags
// and shared stacks. Blocks are recycled through per-thread block pools so
// that steady-state operation allocates no blocks at all.
type Block[T any] struct {
	next *Block[T]
	n    int
	recs [BlockSize]*T
}

// Len returns the number of records currently stored in the block.
func (b *Block[T]) Len() int { return b.n }

// Full reports whether the block holds exactly BlockSize records.
func (b *Block[T]) Full() bool { return b.n == BlockSize }

// Next returns the next block in the chain, or nil.
func (b *Block[T]) Next() *Block[T] { return b.next }

// Record returns the i'th record of the block.
func (b *Block[T]) Record(i int) *T { return b.recs[i] }

// push appends a record; the caller must ensure the block is not full.
func (b *Block[T]) push(rec *T) {
	b.recs[b.n] = rec
	b.n++
}

// pop removes and returns the last record; the caller must ensure the block
// is not empty.
func (b *Block[T]) pop() *T {
	b.n--
	rec := b.recs[b.n]
	b.recs[b.n] = nil
	return rec
}

// reset empties the block without clearing the backing array beyond what is
// needed for garbage-collector hygiene.
func (b *Block[T]) reset() {
	for i := 0; i < b.n; i++ {
		b.recs[i] = nil
	}
	b.n = 0
	b.next = nil
}

// BlockPool is a bounded per-thread cache of empty blocks. Instead of
// deallocating a block, a thread returns it to its block pool; if the pool is
// full the block is dropped (left for the garbage collector, the moral
// equivalent of free()). The paper reports that a pool of 16 blocks per
// thread eliminates more than 99.9% of block allocations.
type BlockPool[T any] struct {
	blocks []*Block[T]
	cap    int

	allocated int64 // total blocks ever allocated by this pool
	recycled  int64 // blocks served from the pool instead of allocating
}

// DefaultBlockPoolCap is the default bound on cached empty blocks per thread.
const DefaultBlockPoolCap = 16

// NewBlockPool creates a block pool bounded at capacity blocks. A capacity of
// zero or less selects DefaultBlockPoolCap.
func NewBlockPool[T any](capacity int) *BlockPool[T] {
	if capacity <= 0 {
		capacity = DefaultBlockPoolCap
	}
	return &BlockPool[T]{blocks: make([]*Block[T], 0, capacity), cap: capacity}
}

// Get returns an empty block, reusing a cached one when possible.
func (p *BlockPool[T]) Get() *Block[T] {
	if b := p.TryGet(); b != nil {
		return b
	}
	p.allocated++
	return &Block[T]{}
}

// TryGet returns a cached empty block or nil, never allocating. It lets a
// block consumer hand a spare back to its producer (the Record Manager's
// batched-retire exchange) without forcing an allocation when the cache is
// empty.
func (p *BlockPool[T]) TryGet() *Block[T] {
	if n := len(p.blocks); n > 0 {
		b := p.blocks[n-1]
		p.blocks[n-1] = nil
		p.blocks = p.blocks[:n-1]
		p.recycled++
		return b
	}
	return nil
}

// Put returns an empty (or emptied) block to the pool; blocks beyond the
// pool's capacity are dropped.
func (p *BlockPool[T]) Put(b *Block[T]) {
	if b == nil {
		return
	}
	b.reset()
	if len(p.blocks) < p.cap {
		p.blocks = append(p.blocks, b)
	}
}

// Allocated returns the number of blocks this pool ever allocated.
func (p *BlockPool[T]) Allocated() int64 { return p.allocated }

// Recycled returns the number of Get calls served from cached blocks.
func (p *BlockPool[T]) Recycled() int64 { return p.recycled }

// Bag is a single-owner bag of record pointers organised as a chain of
// blocks. The zero value is not usable; construct bags with New.
type Bag[T any] struct {
	head *Block[T] // head block: 0 <= head.n < BlockSize; all others full
	size int       // total records
	pool *BlockPool[T]
}

// New creates an empty bag whose blocks are allocated from (and returned to)
// pool. Several bags owned by the same thread may share one pool.
func New[T any](pool *BlockPool[T]) *Bag[T] {
	if pool == nil {
		pool = NewBlockPool[T](0)
	}
	return &Bag[T]{head: pool.Get(), pool: pool}
}

// Len returns the number of records in the bag.
func (b *Bag[T]) Len() int { return b.size }

// Empty reports whether the bag holds no records.
func (b *Bag[T]) Empty() bool { return b.size == 0 }

// LenBlocks returns the number of blocks in the bag, counting the
// (possibly empty) head block.
func (b *Bag[T]) LenBlocks() int {
	n := 0
	for blk := b.head; blk != nil; blk = blk.next {
		n++
	}
	return n
}

// FullBlocks returns the number of completely full blocks in the bag.
func (b *Bag[T]) FullBlocks() int {
	n := 0
	for blk := b.head.next; blk != nil; blk = blk.next {
		n++
	}
	return n
}

// Add appends a record to the bag in O(1).
func (b *Bag[T]) Add(rec *T) {
	if rec == nil {
		panic("blockbag: Add(nil)")
	}
	b.head.push(rec)
	b.size++
	if b.head.Full() {
		nb := b.pool.Get()
		nb.next = b.head
		b.head = nb
	}
}

// Remove removes and returns an arbitrary record from the bag, or
// (nil, false) when the bag is empty. O(1).
func (b *Bag[T]) Remove() (*T, bool) {
	if b.size == 0 {
		return nil, false
	}
	if b.head.n == 0 {
		// Head is empty but the bag is not: recycle the empty head and pop
		// from the (full) next block.
		old := b.head
		b.head = old.next
		b.pool.Put(old)
	}
	rec := b.head.pop()
	b.size--
	return rec, true
}

// AddBlock splices a detached full block into the bag in O(1). The block must
// be full; the head block keeps its "partial" role.
func (b *Bag[T]) AddBlock(blk *Block[T]) {
	if blk == nil {
		return
	}
	if !blk.Full() {
		panic(fmt.Sprintf("blockbag: AddBlock of non-full block (%d records)", blk.n))
	}
	blk.next = b.head.next
	b.head.next = blk
	b.size += blk.n
}

// DetachAllFullBlocks detaches and returns the chain of every full block in
// the bag (or nil when there are none), leaving only the partial head block
// behind. O(1).
func (b *Bag[T]) DetachAllFullBlocks() *Block[T] {
	chain := b.head.next
	b.head.next = nil
	for blk := chain; blk != nil; blk = blk.next {
		b.size -= blk.n
	}
	return chain
}

// TakeFullBlock detaches and returns one full block from the bag, or nil when
// the bag has no full blocks. O(1).
func (b *Bag[T]) TakeFullBlock() *Block[T] {
	blk := b.head.next
	if blk == nil {
		return nil
	}
	b.head.next = blk.next
	blk.next = nil
	b.size -= blk.n
	return blk
}

// MoveAllTo moves every record (including the partial head block's records)
// from b into dst, leaving b empty. Full blocks are moved wholesale; the
// records of the partial head block are re-added individually. Returns the
// number of records moved.
func (b *Bag[T]) MoveAllTo(dst *Bag[T]) int {
	moved := b.MoveFullBlocksTo(dst)
	for {
		rec, ok := b.Remove()
		if !ok {
			break
		}
		dst.Add(rec)
		moved++
	}
	return moved
}

// MoveFullBlocksTo moves every full block from b into dst in O(#blocks)
// pointer operations (no per-record work). Records in the partial head block
// stay behind, exactly as in the paper: they are at most BlockSize-1 records
// that will be moved once their block fills. Returns the number of records
// moved.
func (b *Bag[T]) MoveFullBlocksTo(dst *Bag[T]) int {
	moved := 0
	for {
		blk := b.TakeFullBlock()
		if blk == nil {
			return moved
		}
		moved += blk.n
		dst.AddBlock(blk)
	}
}

// Drain removes every record from the bag, invoking fn on each. Blocks are
// returned to the block pool.
func (b *Bag[T]) Drain(fn func(*T)) int {
	n := 0
	for {
		rec, ok := b.Remove()
		if !ok {
			return n
		}
		n++
		if fn != nil {
			fn(rec)
		}
	}
}

// Contains reports whether rec is present in the bag. O(n); intended for
// tests and assertions only.
func (b *Bag[T]) Contains(rec *T) bool {
	for blk := b.head; blk != nil; blk = blk.next {
		for i := 0; i < blk.n; i++ {
			if blk.recs[i] == rec {
				return true
			}
		}
	}
	return false
}

// Iterator walks the records of a bag and permits in-place swaps, which is
// how DEBRA+ partitions a limbo bag into RProtected records (moved to the
// front) and records that are safe to free (full blocks after the partition
// point are detached wholesale).
type Iterator[T any] struct {
	bag *Bag[T]
	blk *Block[T]
	idx int
}

// Begin returns an iterator positioned at the first record of the bag
// (iteration order is head block first, then each full block).
func (b *Bag[T]) Begin() Iterator[T] {
	it := Iterator[T]{bag: b, blk: b.head, idx: 0}
	it.skipEmpty()
	return it
}

// skipEmpty advances past exhausted blocks.
func (it *Iterator[T]) skipEmpty() {
	for it.blk != nil && it.idx >= it.blk.n {
		it.blk = it.blk.next
		it.idx = 0
	}
}

// Done reports whether the iterator has passed the last record.
func (it *Iterator[T]) Done() bool { return it.blk == nil }

// Get returns the record at the iterator's position.
func (it *Iterator[T]) Get() *T { return it.blk.recs[it.idx] }

// Set replaces the record at the iterator's position.
func (it *Iterator[T]) Set(rec *T) { it.blk.recs[it.idx] = rec }

// Next advances the iterator by one record.
func (it *Iterator[T]) Next() {
	it.idx++
	it.skipEmpty()
}

// Swap exchanges the records at positions it and other. Both iterators must
// belong to the same bag and must not be Done.
func (it *Iterator[T]) Swap(other *Iterator[T]) {
	a, b := it.Get(), other.Get()
	it.Set(b)
	other.Set(a)
}

// DetachFullBlocksAfter removes from the bag every full block that comes
// strictly after the block the iterator is positioned in, returning the
// detached chain (or nil). The partial head block and the iterator's own
// block always stay in the bag, so records at or before the iterator are
// preserved. If the iterator is Done (it walked past every record), nothing
// is detached. O(1).
func (b *Bag[T]) DetachFullBlocksAfter(it Iterator[T]) *Block[T] {
	if it.Done() {
		return nil
	}
	boundary := it.blk
	chain := boundary.next
	boundary.next = nil
	for blk := chain; blk != nil; blk = blk.next {
		b.size -= blk.n
	}
	return chain
}

// ChainLen returns the number of records stored in a detached block chain.
func ChainLen[T any](chain *Block[T]) int {
	n := 0
	for blk := chain; blk != nil; blk = blk.next {
		n += blk.n
	}
	return n
}

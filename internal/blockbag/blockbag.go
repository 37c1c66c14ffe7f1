// Package blockbag implements the block bags used by DEBRA's limbo bags and
// object pools (Section 4 of the paper, "Block bags").
//
// A block bag is a singly-linked list of blocks, each holding up to B record
// pointers. The head block always contains fewer than B records and every
// subsequent block contains exactly B records. With this invariant, adding a
// record, removing a record, and detaching every block of a bag are all
// constant-time operations. Operating on whole blocks rather than individual
// records is what makes DEBRA's epoch rotation and pool transfers cheap.
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
	if n := len(p.blocks); n > 0 {
		b := p.blocks[n-1]
		p.blocks[n-1] = nil
		p.blocks = p.blocks[:n-1]
		p.recycled++
		return b
	}
	p.allocated++
	return &Block[T]{}
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

// PutChain returns every block of a detached chain to the pool, as Put does.
func (p *BlockPool[T]) PutChain(chain *Block[T]) {
	for chain != nil {
		next := chain.next
		p.Put(chain)
		chain = next
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

// UsePool makes the bag draw its blocks from, and return them to, pool from
// now on. A bag shared under a lock borrows, for each holder in turn, from
// the pool the holder owns.
func (b *Bag[T]) UsePool(pool *BlockPool[T]) { b.pool = pool }

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

// FullBlocks returns the number of completely full blocks in the bag. O(1):
// every record outside the head block is in a full block.
func (b *Bag[T]) FullBlocks() int { return (b.size - b.head.n) / BlockSize }

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

// Merge adds every record of a detached block, full or not, to the bag
// without allocating a block, moving at most BlockSize-1 records. A full
// block is spliced in as by AddBlock. Otherwise the block's records fill the
// head block if they fit, and the emptied block goes to the bag's block pool;
// if they do not fit, records from the head top the block up and it is
// spliced in full.
func (b *Bag[T]) Merge(blk *Block[T]) {
	blk.next = nil
	b.size += blk.n
	switch {
	case blk.Full():
	case b.head.n+blk.n < BlockSize:
		for blk.n > 0 {
			b.head.push(blk.pop())
		}
		b.pool.Put(blk)
		return
	default:
		for !blk.Full() {
			blk.push(b.head.pop())
		}
	}
	blk.next = b.head.next
	b.head.next = blk
}

// DetachAllFullBlocks detaches and returns the chain of every full block in
// the bag (or nil when there are none), leaving only the partial head block
// behind. O(1).
func (b *Bag[T]) DetachAllFullBlocks() *Block[T] {
	chain := b.head.next
	b.head.next = nil
	b.size = b.head.n
	return chain
}

// DetachAll detaches and returns every record of the bag as one chain, the
// partial head block first and every other block full (or nil when the bag is
// empty), leaving the bag empty. A non-empty head is replaced by an empty
// block from the bag's block pool; an empty head stays in the bag rather than
// travel in the chain. O(1).
func (b *Bag[T]) DetachAll() *Block[T] {
	if b.head.n == 0 {
		return b.DetachAllFullBlocks()
	}
	chain := b.head
	b.head = b.pool.Get()
	b.size = 0
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

// Sift removes from the bag every record keep rejects and returns them as
// one detached chain shaped as DetachAll returns a bag (the first block
// partial, every other full), or nil when keep accepts every record; the bag
// keeps the records keep accepts. The rejected records are compacted in
// place, in bag order, so a bag of which keep accepts nothing leaves whole
// with no record moved. Otherwise the compaction ends in a partial block,
// which is folded into the first block (at most BlockSize-1 records move
// again, as in Merge), and the blocks it emptied go to the bag's block pool.
// O(n) calls of keep.
func (b *Bag[T]) Sift(keep func(*T) bool) *Block[T] {
	chain := b.DetachAll()
	if chain == nil {
		return nil
	}
	// w is the block being written and wi its next slot. Every block keeps
	// the count it arrived with as its capacity, so the write cursor never
	// passes the read cursor.
	var prev *Block[T] // w's predecessor
	w, wi := chain, 0
	for r := chain; r != nil; r = r.next {
		for i := 0; i < r.n; i++ {
			rec := r.recs[i]
			if keep(rec) {
				b.Add(rec)
				continue
			}
			if wi == w.n {
				prev, w, wi = w, w.next, 0
			}
			w.recs[wi] = rec
			wi++
		}
	}
	if wi == 0 {
		// keep accepted every record.
		b.pool.PutChain(chain)
		return nil
	}
	rest := w.next
	for i := wi; i < w.n; i++ {
		w.recs[i] = nil
	}
	w.n, w.next = wi, nil
	b.pool.PutChain(rest)
	if w == chain || w.Full() {
		return chain
	}
	// Two partial blocks, the first and w: fold w into the first or top w up
	// from it.
	prev.next = nil
	if chain.n+w.n <= BlockSize {
		for w.n > 0 {
			chain.push(w.pop())
		}
		b.pool.Put(w)
		return chain
	}
	for !w.Full() {
		w.push(chain.pop())
	}
	w.next = chain.next
	chain.next = w
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

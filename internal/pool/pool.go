// Package pool implements the object pools of the paper's Record Manager
// (Section 4, "Object pool"): each thread has a private pool bag of freed
// records; overflow is pushed, whole blocks at a time, onto a shared
// lock-free bag; allocation prefers the private bag, then the shared bag,
// and finally falls through to the Allocator.
//
// The package also provides Discard, the counting sink used by the paper's
// Experiment 1, where reclaimers perform all the work of reclamation but
// records are never reused.
package pool

import (
	"sync/atomic"

	"repro/internal/blockbag"
	"repro/internal/core"
)

// DefaultMaxPrivateBlocks is the number of full blocks a private pool bag
// may hold before overflow blocks are pushed to the shared bag.
const DefaultMaxPrivateBlocks = 8

// Pool is the standard Record Manager pool (core.Pool).
type Pool[T any] struct {
	alloc  core.Allocator[T]
	shared blockbag.SharedStack[T]

	threads []poolThread[T]
	handles []ThreadCache[T]

	maxPrivateBlocks int
}

type poolThread[T any] struct {
	bag       *blockbag.Bag[T]
	blockPool *blockbag.BlockPool[T]

	// Single-writer statistics counters (core.Counter): written by the
	// owning tid, read racily by Stats.
	reused        core.Counter
	fromAllocator core.Counter
	freed         core.Counter
	toShared      core.Counter
	fromShared    core.Counter
	_             [core.PadBytes]byte
}

// ThreadCache is one thread's fast-path view of the pool
// (core.PoolHandle): the private bag and counters resolved once, so the
// steady-state Allocate is a bag pop plus a counter bump with no slice
// indexing.
type ThreadCache[T any] struct {
	p   *Pool[T]
	t   *poolThread[T]
	tid int
}

// Allocate implements core.PoolHandle (see Pool.Allocate).
func (c *ThreadCache[T]) Allocate() *T {
	t := c.t
	if rec, ok := t.bag.Remove(); ok {
		t.reused.Inc()
		return rec
	}
	// Try to refill from the shared bag.
	if blk := c.p.shared.Pop(); blk != nil {
		n := int64(blk.Len())
		t.bag.AddBlock(blk)
		t.fromShared.Add(n)
		if rec, ok := t.bag.Remove(); ok {
			t.reused.Inc()
			return rec
		}
	}
	t.fromAllocator.Inc()
	return c.p.alloc.Allocate(c.tid)
}

// Free implements core.PoolHandle (see Pool.Free).
func (c *ThreadCache[T]) Free(rec *T) {
	c.t.bag.Add(rec)
	c.t.freed.Inc()
	c.p.spill(c.tid)
}

// Option configures a Pool.
type Option func(*config)

type config struct {
	maxPrivateBlocks int
}

// WithMaxPrivateBlocks bounds the number of full blocks kept in each
// thread's private pool bag before overflow is pushed to the shared bag.
func WithMaxPrivateBlocks(n int) Option {
	return func(c *config) { c.maxPrivateBlocks = n }
}

// New creates a pool for n threads backed by alloc.
func New[T any](n int, alloc core.Allocator[T], opts ...Option) *Pool[T] {
	if n <= 0 {
		panic("pool: New requires n >= 1")
	}
	if alloc == nil {
		panic("pool: New requires an Allocator")
	}
	cfg := config{maxPrivateBlocks: DefaultMaxPrivateBlocks}
	for _, o := range opts {
		o(&cfg)
	}
	p := &Pool[T]{
		alloc:            alloc,
		threads:          make([]poolThread[T], n),
		maxPrivateBlocks: cfg.maxPrivateBlocks,
	}
	for i := range p.threads {
		bp := blockbag.NewBlockPool[T](blockbag.DefaultBlockPoolCap)
		p.threads[i].blockPool = bp
		p.threads[i].bag = blockbag.New(bp)
	}
	p.handles = make([]ThreadCache[T], n)
	for i := range p.handles {
		p.handles[i] = ThreadCache[T]{p: p, t: &p.threads[i], tid: i}
	}
	return p
}

// Handle implements core.Pool: thread tid's fast-path view.
func (p *Pool[T]) Handle(tid int) core.PoolHandle[T] { return &p.handles[tid] }

// BlockPool implements core.FreeSink: thread tid's block pool, which the
// reclaimer's bags owned by the same thread share (blocks then circulate
// between limbo bags and the pool bag without ever being reallocated).
func (p *Pool[T]) BlockPool(tid int) *blockbag.BlockPool[T] { return p.threads[tid].blockPool }

// Allocate returns a record for thread tid: private pool bag first, then the
// shared bag (whole blocks at a time), then the Allocator.
func (p *Pool[T]) Allocate(tid int) *T { return p.handles[tid].Allocate() }

// Free returns a reclaimed record to thread tid's private pool bag,
// spilling whole blocks to the shared bag when the private bag grows beyond
// its bound.
func (p *Pool[T]) Free(tid int, rec *T) { p.handles[tid].Free(rec) }

// FreeBlocks implements core.FreeSink: it accepts a detached block chain. Full
// blocks are spliced into thread tid's private bag whole; a partial first
// block is merged in with at most BlockSize-1 record moves, and a block it
// leaves empty goes to the thread's block pool. Spill runs once, after.
func (p *Pool[T]) FreeBlocks(tid int, chain *blockbag.Block[T]) {
	if chain == nil {
		return
	}
	t := &p.threads[tid]
	n := int64(0)
	for blk := chain; blk != nil; {
		next := blk.Next()
		n += int64(blk.Len())
		// Merge rewrites the block's chain pointer, so no explicit detaching
		// is needed; the loop variable already captured next.
		t.bag.Merge(blk)
		blk = next
	}
	t.freed.Add(n)
	p.spill(tid)
}

// DrainThread implements core.Pool: move every full block of thread
// tid's private pool bag onto the shared bag, so records cached by a
// goroutine releasing its thread slot stay reusable by every other thread.
// A sub-block tail (at most BlockSize-1 records) remains private for the
// slot's next occupant — moving it would mean splitting a partial block,
// and the remainder is bounded and not leaked. Called by the slot's former
// owner from a quiescent context (the single-writer counter contract
// migrates with the slot across the release's happens-before edge).
func (p *Pool[T]) DrainThread(tid int) {
	t := &p.threads[tid]
	for {
		blk := t.bag.TakeFullBlock()
		if blk == nil {
			return
		}
		t.toShared.Add(int64(blk.Len()))
		p.shared.Push(blk)
	}
}

// spill pushes full blocks beyond the private bound onto the shared bag.
func (p *Pool[T]) spill(tid int) {
	t := &p.threads[tid]
	for t.bag.FullBlocks() > p.maxPrivateBlocks {
		blk := t.bag.TakeFullBlock()
		if blk == nil {
			return
		}
		t.toShared.Add(int64(blk.Len()))
		p.shared.Push(blk)
	}
}

// Stats sums the per-thread counters.
func (p *Pool[T]) Stats() core.PoolStats {
	var s core.PoolStats
	for i := range p.threads {
		t := &p.threads[i]
		s.Reused += t.reused.Load()
		s.FromAllocator += t.fromAllocator.Load()
		s.Freed += t.freed.Load()
		s.ToShared += t.toShared.Load()
		s.FromShared += t.fromShared.Load()
	}
	return s
}

// SharedBlocks returns the number of blocks currently on the shared bag
// (instrumentation for tests and the harness).
func (p *Pool[T]) SharedBlocks() int64 { return p.shared.Blocks() }

// Discard is a free sink that drops records, merely counting them. It is the
// configuration of the paper's Experiment 1: the data structure pays the
// cost of reclamation but does not enjoy its benefits (no reuse, growing
// footprint). The emptied blocks go back to the block pool it lends their
// thread, so freeing allocates nothing.
type Discard[T any] struct {
	// dropped is genuinely multi-writer (any tid frees into the one cell),
	// so it stays an atomic RMW — Discard is a measurement sink, not a
	// per-thread hot-path component.
	dropped atomic.Int64
	blocks  []*blockbag.BlockPool[T]
}

// NewDiscard creates a discarding sink for n threads.
func NewDiscard[T any](n int) *Discard[T] {
	d := &Discard[T]{blocks: make([]*blockbag.BlockPool[T], n)}
	for i := range d.blocks {
		d.blocks[i] = blockbag.NewBlockPool[T](blockbag.DefaultBlockPoolCap)
	}
	return d
}

// FreeBlocks implements core.FreeSink: count the chain's records and keep
// its blocks.
func (d *Discard[T]) FreeBlocks(tid int, chain *blockbag.Block[T]) {
	d.dropped.Add(int64(blockbag.ChainLen(chain)))
	d.blocks[tid].PutChain(chain)
}

// BlockPool implements core.FreeSink.
func (d *Discard[T]) BlockPool(tid int) *blockbag.BlockPool[T] { return d.blocks[tid] }

// Freed returns the number of records dropped.
func (d *Discard[T]) Freed() int64 { return d.dropped.Load() }

// Compile-time interface checks.
var (
	_ core.Pool[int]     = (*Pool[int])(nil)
	_ core.FreeSink[int] = (*Discard[int])(nil)
)

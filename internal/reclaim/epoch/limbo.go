package epoch

import (
	"repro/internal/blockbag"
	"repro/internal/core"
)

// Bags is a Domain whose threads each keep a private limbo (qsbr, debra,
// debra+); it adds the scheme-object methods that reach into one.
type Bags[T any] struct {
	*Domain[T]
	limbos []*Limbo[T]
}

// NewBags is New for a scheme with private limbo bags.
func NewBags[T any](name string, n int, sink core.FreeSink[T], opts []Option) Bags[T] {
	return Bags[T]{Domain: New(name, n, sink, opts), limbos: make([]*Limbo[T], n)}
}

// blockPoolLender is a sink that stores records in block bags and lends out
// the per-thread pool its emptied blocks return to (pool.Pool). Thread tid's
// pool is only ever used by the owner of tid.
type blockPoolLender[T any] interface {
	BlockPool(tid int) *blockbag.BlockPool[T]
}

// BindLimbo makes l slot tid's thread and limbo. Full blocks travel one way,
// from a limbo bag to the sink, so when the sink keeps them and lends its
// block pools the bags draw from the pool their blocks are emptied into; a
// pool of their own would allocate a block per BlockSize retires for as long
// as the thread runs while the sink's overflowed and dropped as many.
func (b *Bags[T]) BindLimbo(tid int, l *Limbo[T]) {
	b.Bind(tid, &l.Thread)
	if lender, ok := b.sink.(blockPoolLender[T]); ok && b.blockSink != nil {
		l.blockPool = lender.BlockPool(tid)
	} else {
		l.blockPool = blockbag.NewBlockPool[T](blockbag.DefaultBlockPoolCap)
	}
	for i := range l.bags {
		l.bags[i] = blockbag.New(l.blockPool)
	}
	l.cur = l.bags[0]
	b.limbos[tid] = l
}

// RetireBlock implements core.Reclaimer: splice one detached full block into
// tid's current bag in O(1) and give back an empty block from the thread's
// pool when one is cached. The caller must be pinned as for Retire.
func (b *Bags[T]) RetireBlock(tid int, blk *blockbag.Block[T]) *blockbag.Block[T] {
	if blk == nil {
		return nil
	}
	l := b.limbos[tid]
	l.RequirePinned()
	l.Retired.Add(int64(blk.Len()))
	l.cur.AddBlock(blk)
	return l.blockPool.TryGet()
}

// DrainLimbo implements core.LimboDrainer: free what every thread's bags
// hold, partial blocks included, except records a Held hook vouches for. Only
// safe once every thread is quiescent for good and the caller holds a
// happens-before edge from their last operation; tid is charged for the frees.
func (b *Bags[T]) DrainLimbo(tid int) int64 {
	b.RequireAllQuiescent()
	by := b.threads[tid]
	var n int64
	for _, l := range b.limbos {
		for _, bag := range l.bags {
			n += by.Free(l.freeable(bag, true), l.blockPool)
			// Only a Sweep (debra+) leaves records behind: the tails it
			// keeps and the records it holds.
			var held []*T
			bag.Drain(func(rec *T) {
				if l.Held != nil && l.Held(rec) {
					held = append(held, rec)
					return
				}
				by.FreeRecord(rec)
				n++
			})
			for _, rec := range held {
				bag.Add(rec)
			}
		}
	}
	return n
}

// LimboSize returns the number of records waiting in tid's bags
// (instrumentation; approximate while tid is running).
func (b *Bags[T]) LimboSize(tid int) int {
	n := 0
	for _, bag := range b.limbos[tid].bags {
		n += bag.Len()
	}
	return n
}

// Limbo is a Thread with a private three-bag limbo: records retired under
// the epoch the thread last observed go to the current bag, and each newly
// observed epoch reuses the oldest bag, whose records were retired at least
// two epochs ago and are all freed then.
type Limbo[T any] struct {
	Thread[T]

	// Sweep, when non-nil, chooses what a rotation frees in place of "the
	// whole oldest bag": it detaches and returns the full blocks of bag that
	// may go now (debra+: those behind the records a recovery protection
	// covers, and nothing until the bag is worth a table scan — unless force
	// is set, as it is at shutdown). The bag's partial head block stays
	// behind.
	Sweep func(bag *blockbag.Bag[T], force bool) *blockbag.Block[T]
	// Held, when non-nil, reports whether the last Sweep found rec protected.
	Held func(rec *T) bool

	bags      [3]*blockbag.Bag[T]
	cur       *blockbag.Bag[T]
	index     int
	blockPool *blockbag.BlockPool[T]
}

// Retire implements core.ReclaimerHandle: add rec to the current bag, O(1).
// The caller must be pinned (in an operation, or between PinRetire and
// UnpinRetire).
func (l *Limbo[T]) Retire(rec *T) {
	l.CheckRetire(rec)
	l.cur.Add(rec)
	l.Retired.Inc()
}

// Current returns the bag retires are going to.
func (l *Limbo[T]) Current() *blockbag.Bag[T] { return l.cur }

// Rotate makes the oldest bag the current one and frees what it may; the
// thread calls it once per epoch it observes.
func (l *Limbo[T]) Rotate() {
	l.index = (l.index + 1) % len(l.bags)
	l.cur = l.bags[l.index]
	// A lone thread observes a new epoch nearly every operation: an empty
	// chain must cost nothing.
	if chain := l.freeable(l.cur, false); chain != nil {
		l.Free(chain, l.blockPool)
	}
}

// freeable detaches the blocks of bag that may be freed now: all of them,
// partial head included, unless a Sweep chooses.
func (l *Limbo[T]) freeable(bag *blockbag.Bag[T], force bool) *blockbag.Block[T] {
	if l.Sweep != nil {
		return l.Sweep(bag, force)
	}
	return bag.DetachAll()
}

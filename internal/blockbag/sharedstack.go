package blockbag

import "sync/atomic"

// SharedStack is a lock-free stack of full blocks, shared by all threads.
// The paper's object pool keeps one such shared bag: when a thread's private
// pool bag grows too large it pushes full blocks here, and a thread whose
// private pool bag is empty pops full blocks from here. Only whole blocks are
// exchanged, which keeps synchronisation costs negligible.
//
// Pushes use the classic Treiber CAS loop, which is ABA-safe (the CAS only
// succeeds when the observed top is still the top, and the new block's next
// pointer was written before the CAS). Pops avoid the Treiber-pop ABA
// problem entirely by detaching the whole chain with an atomic swap
// (PopAll) and pushing back whatever the caller does not keep. Since blocks
// cross the shared stack only when a private pool bag over- or under-flows,
// the extra push-back traffic is negligible.
type SharedStack[T any] struct {
	top    atomic.Pointer[Block[T]]
	blocks atomic.Int64 // current number of blocks on the stack
}

// Push adds a detached full block to the shared stack.
func (s *SharedStack[T]) Push(blk *Block[T]) {
	if blk == nil {
		return
	}
	if blk.next != nil {
		panic("blockbag: Push of a chained block; use PushChain")
	}
	for {
		old := s.top.Load()
		blk.next = old
		if s.top.CompareAndSwap(old, blk) {
			s.blocks.Add(1)
			return
		}
	}
}

// PushChain pushes every block of a detached chain.
func (s *SharedStack[T]) PushChain(chain *Block[T]) {
	for chain != nil {
		next := chain.next
		chain.next = nil
		s.Push(chain)
		chain = next
	}
}

// PopAll atomically detaches and returns the entire chain of blocks (which
// may be nil). The caller owns the returned chain and typically keeps a few
// blocks and pushes the remainder back with PushChain.
func (s *SharedStack[T]) PopAll() *Block[T] {
	chain := s.top.Swap(nil)
	if chain == nil {
		return nil
	}
	n := int64(0)
	for blk := chain; blk != nil; blk = blk.next {
		n++
	}
	s.blocks.Add(-n)
	return chain
}

// Pop removes and returns one block, or nil when the stack is empty. It is
// implemented as PopAll plus a push-back of the remainder, so it is ABA-safe
// without version counters; prefer PopAll when several blocks are wanted.
func (s *SharedStack[T]) Pop() *Block[T] {
	chain := s.PopAll()
	if chain == nil {
		return nil
	}
	rest := chain.next
	chain.next = nil
	s.PushChain(rest)
	return chain
}

// Blocks returns the current number of blocks on the stack.
func (s *SharedStack[T]) Blocks() int64 { return s.blocks.Load() }

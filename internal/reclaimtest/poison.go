package reclaimtest

import (
	"sync/atomic"

	"repro/internal/blockbag"
	"repro/internal/core"
)

// Poisonable is implemented (with pointer receivers) by managed record types
// that carry a freed-mark for use-after-free detection. The poison wrapper
// below sets the mark on every record handed to the free path and clears it
// on reuse; data structure instrumentation (for example the hash map's visit
// hook) asserts that a traversal never observes the mark on a record its
// protection has made safe to access.
type Poisonable interface {
	// Poison marks the record freed and reports whether it already was
	// (a double free).
	Poison() bool
	// Unpoison clears the freed mark (the record is being reused).
	Unpoison()
	// IsPoisoned reports whether the record is currently marked freed.
	IsPoisoned() bool
}

// PoisonPool wraps an object pool for any record type whose pointer type
// implements Poisonable: records are poisoned when they are freed into the
// pool — by the reclaimer's FreeBlocks or a handle's Free — and unpoisoned
// when a handle hands them back out, so a reader that still observes a
// poisoned record has, by construction, crossed a free. It implements the
// whole of core.Pool by forwarding to inner, so the scheme's limbo bags draw
// from inner's block pools, freed chains reach inner's FreeBlocks and a
// released slot's cache reaches inner's shared bag: the paths production
// runs. It is installed both as the reclaimer's free sink and as the Record
// Manager's pool.
type PoisonPool[T any, PT interface {
	*T
	Poisonable
}] struct {
	inner       core.Pool[T]
	frees       atomic.Int64
	doubleFrees atomic.Int64
}

// NewPoisonPool wraps inner with poisoning instrumentation.
func NewPoisonPool[T any, PT interface {
	*T
	Poisonable
}](inner core.Pool[T]) *PoisonPool[T, PT] {
	if inner == nil {
		panic("reclaimtest: NewPoisonPool requires a pool")
	}
	return &PoisonPool[T, PT]{inner: inner}
}

// poison marks rec freed, counting a double free.
func (p *PoisonPool[T, PT]) poison(rec *T) {
	if PT(rec).Poison() {
		p.doubleFrees.Add(1)
	}
}

// Handle implements core.Pool: inner's handle for tid, unpoisoning what it
// allocates and poisoning what it frees.
func (p *PoisonPool[T, PT]) Handle(tid int) core.PoolHandle[T] {
	return &poisonHandle[T, PT]{p: p, inner: p.inner.Handle(tid)}
}

// FreeBlocks implements core.FreeSink: poison every record of the chain, then
// hand the chain to inner.
func (p *PoisonPool[T, PT]) FreeBlocks(tid int, chain *blockbag.Block[T]) {
	for blk := chain; blk != nil; blk = blk.Next() {
		for i := 0; i < blk.Len(); i++ {
			p.poison(blk.Record(i))
		}
	}
	p.frees.Add(int64(blockbag.ChainLen(chain)))
	p.inner.FreeBlocks(tid, chain)
}

// BlockPool implements core.FreeSink: inner's.
func (p *PoisonPool[T, PT]) BlockPool(tid int) *blockbag.BlockPool[T] { return p.inner.BlockPool(tid) }

// DrainThread implements core.Pool.
func (p *PoisonPool[T, PT]) DrainThread(tid int) { p.inner.DrainThread(tid) }

// Stats implements core.Pool.
func (p *PoisonPool[T, PT]) Stats() core.PoolStats { return p.inner.Stats() }

// Freed returns the number of records freed through the wrapper.
func (p *PoisonPool[T, PT]) Freed() int64 { return p.frees.Load() }

// DoubleFrees returns the number of records freed more than once.
func (p *PoisonPool[T, PT]) DoubleFrees() int64 { return p.doubleFrees.Load() }

// poisonHandle is PoisonPool's per-thread view (core.PoolHandle).
type poisonHandle[T any, PT interface {
	*T
	Poisonable
}] struct {
	p     *PoisonPool[T, PT]
	inner core.PoolHandle[T]
}

// Allocate implements core.PoolHandle: the record is unpoisoned before the
// caller can see it, so a subsequent publish makes it observable only as
// live.
func (h *poisonHandle[T, PT]) Allocate() *T {
	rec := h.inner.Allocate()
	PT(rec).Unpoison()
	return rec
}

// Free implements core.PoolHandle.
func (h *poisonHandle[T, PT]) Free(rec *T) {
	h.p.poison(rec)
	h.p.frees.Add(1)
	h.inner.Free(rec)
}

// Package core is a stub of the real repro/internal/core API surface, just
// enough for the analyzer golden packages to type-check. The package path
// ends in internal/core so the analyzers' path-suffix matching treats these
// declarations exactly like the real stack's.
package core

// PadBytes mirrors the real cache-line pad constant.
const PadBytes = 64

// Counter is the single-writer stat cell the singlewriter analyzer demands.
type Counter struct{ v int64 }

// Load returns the cell value.
func (c *Counter) Load() int64 { return c.v }

// Inc bumps the cell by one.
func (c *Counter) Inc() { c.v++ }

// RecordManager owns the worker slots; operations go through the acquired
// ThreadHandle.
type RecordManager[T any] struct{ _ int }

// AcquireHandle binds a worker slot, blocking until one is free.
func (m *RecordManager[T]) AcquireHandle() *ThreadHandle[T] { return &ThreadHandle[T]{} }

// TryAcquireHandle binds a worker slot without blocking.
func (m *RecordManager[T]) TryAcquireHandle() (*ThreadHandle[T], bool) {
	return &ThreadHandle[T]{}, true
}

// ReleaseHandle returns a worker slot.
func (m *RecordManager[T]) ReleaseHandle(h *ThreadHandle[T]) {}

// ThreadHandle is a worker slot's per-thread handle.
type ThreadHandle[T any] struct{ _ int }

// Retire hands the record to the scheme.
func (h *ThreadHandle[T]) Retire(rec *T) {}

// LeaveQstate announces the thread as active.
func (h *ThreadHandle[T]) LeaveQstate() {}

// EnterQstate announces the thread as quiescent.
func (h *ThreadHandle[T]) EnterQstate() {}

// Protect announces a hazard pointer for rec.
func (h *ThreadHandle[T]) Protect(rec *T) {}

// Unprotect withdraws the hazard announcement for rec.
func (h *ThreadHandle[T]) Unprotect(rec *T) {}

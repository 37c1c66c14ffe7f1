// Package stub is a data-structure-layer handle API stub (path under
// internal/ds so the analyzers treat it as DS code): a partitioned wrapper
// whose handles release through a method rather than through the manager.
package stub

// PartitionedHandle is a slot-backed per-thread handle.
type PartitionedHandle struct{ _ int }

// Release returns the handle's slot.
func (h *PartitionedHandle) Release() {}

// Partitioned is a partitioned structure handing out slot-backed handles.
type Partitioned struct{ _ int }

// AcquireHandle binds a worker slot.
func (p *Partitioned) AcquireHandle() *PartitionedHandle { return &PartitionedHandle{} }

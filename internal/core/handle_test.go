package core_test

// Tests for the per-thread handle layer: ThreadHandle and the scheme/pool
// fast paths it caches.

import (
	"reflect"
	"repro/internal/reclaimtest"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/reclaim/debra"
	"repro/internal/reclaim/epoch"
	"repro/internal/reclaim/hp"
)

// TestOneOperationSurface guards the single binding style: a per-thread
// operation exists only on a handle, so no method name of ReclaimerHandle may
// appear in the method set of Reclaimer or *RecordManager.
func TestOneOperationSurface(t *testing.T) {
	handle := reflect.TypeOf((*core.ReclaimerHandle[node])(nil)).Elem()
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*core.Reclaimer[node])(nil)).Elem(),
		reflect.TypeOf((*core.RecordManager[node])(nil)),
	} {
		for i := 0; i < handle.NumMethod(); i++ {
			if name := handle.Method(i).Name; hasMethod(typ, name) {
				t.Errorf("%v has the per-thread operation %s; it belongs on a handle only", typ, name)
			}
		}
	}
}

func hasMethod(typ reflect.Type, name string) bool {
	_, ok := typ.MethodByName(name)
	return ok
}

func TestThreadHandleBasics(t *testing.T) {
	const n = 3
	alloc := arena.NewBump[node](n, 64)
	pl := pool.New[node](n, alloc)
	rec := debra.New[node](n, pl, epoch.WithIncrThresh(1))
	m := core.NewRecordManager[node](alloc, pl, rec)

	h := reclaimtest.AcquireSlots(2, m.AcquireHandle)[1]
	if h.Tid() != 1 || h.Manager() != m {
		t.Fatalf("handle identity wrong: tid=%d", h.Tid())
	}
	if h.Manager().NeedsPerRecordProtection() || h.Manager().SupportsCrashRecovery() {
		t.Fatal("manager capabilities disagree with DEBRA")
	}

	// A full operation through the handle: pin, allocate, retire, unpin.
	h.LeaveQstate()
	r := h.Allocate()
	if r == nil {
		t.Fatal("handle Allocate returned nil")
	}
	h.Retire(r)
	h.EnterQstate()
	if got := m.Stats().Reclaimer.Retired; got != 1 {
		t.Fatalf("retired = %d after handle Retire", got)
	}

	// Deallocate through the handle recycles via the pool.
	r2 := h.Allocate()
	h.Deallocate(r2)
	if got := m.Stats().Pool.Freed; got == 0 {
		t.Fatal("handle Deallocate did not reach the pool")
	}
}

// TestThreadHandleQuiescentRetire: a handle Retire from a quiescent context
// reaches the scheme's Retire, which pins the thread, rather than panicking
// or corrupting the scheme's bag rotation argument.
func TestThreadHandleQuiescentRetire(t *testing.T) {
	const n = 2
	alloc := arena.NewBump[node](n, 64)
	pl := pool.New[node](n, alloc)
	rec := debra.New[node](n, pl)
	m := core.NewRecordManager[node](alloc, pl, rec)
	h := m.AcquireHandle()
	defer m.ReleaseHandle(h)
	// Quiescent: no LeaveQstate. The scheme pins around the hand-off.
	h.Retire(h.Allocate())
	if got := m.Stats().Reclaimer.Retired; got != 1 {
		t.Fatalf("retired = %d after quiescent handle Retire", got)
	}
	if !h.IsQuiescent() {
		t.Fatal("thread left non-quiescent by the quiescent Retire")
	}
}

// TestThreadHandleHPProtect: the hazard-pointer fast path goes through the
// cached slot array the scheme's scan reads: a record the handle protects
// survives a scan, and the first scan after Unprotect frees it.
func TestThreadHandleHPProtect(t *testing.T) {
	const n = 2
	sink := reclaimtest.NewRecordingSink()
	// A threshold of one scans on every retire.
	r := hp.New[rec](n, sink, hp.WithSlots(4), hp.WithRetireThreshold(1))
	m := core.NewRecordManager[rec](arena.NewBump[rec](n, 64), nil, r)
	h := m.AcquireHandle()
	defer m.ReleaseHandle(h)
	x := h.Allocate()
	h.Protect(x)
	h.Retire(x)
	if sink.Contains(x) {
		t.Fatal("a scan freed the record the handle protects")
	}
	h.Unprotect(x)
	h.Retire(h.Allocate())
	if !sink.Contains(x) {
		t.Fatal("handle Unprotect did not release the slot")
	}
}

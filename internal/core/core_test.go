package core_test

import (
	"strings"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/reclaim/debra"
	"repro/internal/reclaim/epoch"
	"repro/internal/reclaim/none"
)

type node struct {
	key  int64
	next *node
}

func TestRecordManagerComposition(t *testing.T) {
	const n = 2
	alloc := arena.NewBump[node](n, 64)
	pl := pool.New[node](n, alloc)
	rec := debra.New[node](n, pl, epoch.WithIncrThresh(1))
	m := core.NewRecordManager[node](alloc, pl, rec)

	if m.Allocator() != core.Allocator[node](alloc) || m.Pool() == nil || m.Reclaimer() == nil {
		t.Fatal("accessors returned unexpected components")
	}
	if m.NeedsPerRecordProtection() {
		t.Fatal("DEBRA must not require per-record protection")
	}
	if m.SupportsCrashRecovery() {
		t.Fatal("DEBRA does not support crash recovery")
	}

	h := m.AcquireHandle()
	if h.Manager() != m || h.Tid() != 0 {
		t.Fatalf("first handle of a fresh manager: Manager()==m is %v, Tid()=%d want 0", h.Manager() == m, h.Tid())
	}
	h.LeaveQstate()
	r := h.Allocate()
	if r == nil {
		t.Fatal("Allocate returned nil")
	}
	h.Protect(r)
	h.Unprotect(r)
	h.RProtect(r)
	h.RUnprotectAll()
	h.Checkpoint()
	h.Retire(r)
	h.EnterQstate()
	if !h.IsQuiescent() {
		t.Fatal("not quiescent after EnterQstate")
	}
	m.ReleaseHandle(h)

	stats := m.Stats()
	if stats.Reclaimer.Retired != 1 {
		t.Fatalf("Retired=%d want 1", stats.Reclaimer.Retired)
	}
	if stats.Alloc.Allocated != 1 {
		t.Fatalf("Allocated=%d want 1", stats.Alloc.Allocated)
	}
}

func TestRecordManagerWithoutPool(t *testing.T) {
	alloc := arena.NewBump[node](1, 64)
	m := core.NewRecordManager[node](alloc, nil, none.New[node](1))
	h := m.AcquireHandle()
	defer m.ReleaseHandle(h)
	r := h.Allocate()
	if r == nil {
		t.Fatal("Allocate returned nil")
	}
	h.Deallocate(r)
	if m.Pool() != nil {
		t.Fatal("Pool should be nil")
	}
	if got := m.Stats().Alloc.Deallocated; got != 1 {
		t.Fatalf("Deallocated=%d want 1", got)
	}
}

func TestRecordManagerDeallocateUsesPool(t *testing.T) {
	alloc := arena.NewBump[node](1, 64)
	pl := pool.New[node](1, alloc)
	m := core.NewRecordManager[node](alloc, pl, none.New[node](1))
	h := m.AcquireHandle()
	defer m.ReleaseHandle(h)
	r := h.Allocate()
	h.Deallocate(r)
	if got := h.Allocate(); got != r {
		t.Fatal("deallocated record was not recycled through the pool")
	}
}

func TestNewRecordManagerValidation(t *testing.T) {
	alloc := arena.NewBump[node](1, 64)
	if !panics(func() { core.NewRecordManager[node](nil, nil, none.New[node](1)) }) {
		t.Fatal("expected panic for nil allocator")
	}
	if !panics(func() { core.NewRecordManager[node](alloc, nil, nil) }) {
		t.Fatal("expected panic for nil reclaimer")
	}
}

func TestRenderFigureTwo(t *testing.T) {
	props := []core.Properties{
		none.New[node](1).Props(),
		debra.New[node](1, pool.NewDiscard[node](1)).Props(),
	}
	props = append(props, core.ReferenceProperties()...)
	out := core.RenderFigureTwo(props)
	for _, want := range []string{"scheme", "DEBRA", "None", "RC", "B&C", "QS", "OA", "fault tolerant"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(props)+2 { // header + separator + rows
		t.Fatalf("expected %d lines, got %d:\n%s", len(props)+2, len(lines), out)
	}
}

func TestProgressString(t *testing.T) {
	cases := map[core.Progress]string{
		core.ProgressBlocking:            "Blocking",
		core.ProgressLockFree:            "L",
		core.ProgressLockFreeConditional: "L (conditional)",
		core.ProgressWaitFree:            "W",
		core.ProgressWaitFreeSignal:      "W (signal)",
		core.Progress(99):                "Progress(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Fatalf("Progress(%d).String()=%q want %q", int(p), got, want)
		}
	}
}

func TestPropertiesRowMatchesHeader(t *testing.T) {
	for _, p := range core.ReferenceProperties() {
		if len(p.Row()) != len(core.FigureTwoHeader()) {
			t.Fatalf("row length mismatch for %s", p.Scheme)
		}
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

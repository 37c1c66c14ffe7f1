package recordmgr_test

import (
	"testing"

	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/neutralize"
	"repro/internal/pool"
	"repro/internal/recordmgr"
)

type node struct {
	key   int64
	value int64
}

// retireOne is one allocate-and-retire operation, written as the data
// structures write theirs so that it survives DEBRA+: the record is allocated
// in a quiescent preamble (never inside a restartable body), and because
// EnterQstate delivers a pending neutralization as a panic, the retire is
// captured in a local before that checkpoint and recovery re-runs the body
// only when the retire had not happened yet.
func retireOne(h *core.ThreadHandle[node]) {
	rec := h.Allocate()
	body := func() (retired bool) {
		defer neutralize.OnNeutralized(h, func(neutralize.Neutralized) {})
		h.LeaveQstate()
		h.Retire(rec)
		retired = true
		h.EnterQstate()
		return true
	}
	for !body() {
	}
}

func TestBuildEveryScheme(t *testing.T) {
	for _, scheme := range recordmgr.Schemes() {
		for _, usePool := range []bool{false, true} {
			for _, alloc := range []recordmgr.AllocatorKind{recordmgr.AllocBump, recordmgr.AllocHeap} {
				m, err := recordmgr.Build[node](recordmgr.Config{
					Scheme:    scheme,
					Threads:   3,
					Allocator: alloc,
					UsePool:   usePool,
				})
				if err != nil {
					t.Fatalf("Build(%s, pool=%v, alloc=%s): %v", scheme, usePool, alloc, err)
				}
				if got := m.Reclaimer().Name(); got != scheme {
					t.Fatalf("built %q, reclaimer reports %q", scheme, got)
				}
				if usePool && m.Pool() == nil {
					t.Fatalf("Build(%s) with UsePool did not attach a pool", scheme)
				}
				if !usePool && m.Pool() != nil {
					t.Fatalf("Build(%s) without UsePool attached a pool", scheme)
				}
				// Only the neutralizing scheme asks for recovery code — HP and
				// the leaking baseline are fault tolerant without it.
				if got := m.SupportsCrashRecovery(); got != (scheme == recordmgr.SchemeDEBRAPlus) {
					t.Fatalf("Build(%s): SupportsCrashRecovery = %v", scheme, got)
				}
				// Smoke: one allocate/retire cycle.
				h := m.AcquireHandle()
				h.LeaveQstate()
				h.Retire(h.Allocate())
				h.EnterQstate()
				m.ReleaseHandle(h)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := recordmgr.Build[node](recordmgr.Config{Scheme: "nope", Threads: 1}); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
	if _, err := recordmgr.Build[node](recordmgr.Config{Scheme: recordmgr.SchemeDEBRA, Threads: 0}); err == nil {
		t.Fatal("expected error for zero threads")
	}
	if _, err := recordmgr.Build[node](recordmgr.Config{Scheme: recordmgr.SchemeDEBRA, Threads: 1, Allocator: "weird"}); err == nil {
		t.Fatal("expected error for unknown allocator kind")
	}
	if _, err := recordmgr.Build[node](recordmgr.Config{Scheme: recordmgr.SchemeDEBRA, Threads: 4, MaxThreads: 2}); err == nil {
		t.Fatal("expected error for MaxThreads < Threads")
	}
	if _, err := recordmgr.Build[node](recordmgr.Config{Scheme: recordmgr.SchemeDEBRA, Threads: 1, MaxThreads: -1}); err == nil {
		t.Fatal("expected error for negative MaxThreads")
	}
}

// TestMaxThreadsDynamicBinding: Config.MaxThreads sizes the slot registry
// (and every per-thread component) beyond the nominal worker count, so
// goroutines can bind and release slots at runtime across every scheme.
func TestMaxThreadsDynamicBinding(t *testing.T) {
	for _, scheme := range recordmgr.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			mgr, err := recordmgr.Build[node](recordmgr.Config{
				Scheme:     scheme,
				Threads:    2,
				MaxThreads: 4,
				UsePool:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := mgr.WorkerSlots(); got != 4 {
				t.Fatalf("WorkerSlots = %d want 4", got)
			}
			handles := make([]*core.ThreadHandle[node], 4)
			for i := range handles {
				handles[i] = mgr.AcquireHandle()
				if tid := handles[i].Tid(); tid < 0 || tid >= 4 {
					t.Fatalf("acquired tid %d outside the worker-slot range", tid)
				}
			}
			//lint:allow handlepair exhaustion probe: ok is asserted false, so there is no handle to release
			if _, ok := mgr.TryAcquireHandle(); ok {
				t.Fatal("TryAcquireHandle succeeded beyond MaxThreads")
			}
			for _, h := range handles {
				h.LeaveQstate()
				h.Retire(h.Allocate())
				h.EnterQstate()
				mgr.ReleaseHandle(h)
			}
			mgr.Close()
			st := mgr.Stats()
			if st.Reclaimer.Retired != 4 {
				t.Fatalf("Retired = %d want 4", st.Reclaimer.Retired)
			}
			if scheme != recordmgr.SchemeNone && st.Reclaimer.Freed != st.Reclaimer.Retired {
				t.Fatalf("after Close: retired %d != freed %d", st.Reclaimer.Retired, st.Reclaimer.Freed)
			}
		})
	}
}

func TestMustBuildPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	recordmgr.MustBuild[node](recordmgr.Config{Scheme: "nope", Threads: 1})
}

func TestNewReclaimerSharedDomain(t *testing.T) {
	dom := neutralize.NewDomain(2)
	r, err := recordmgr.NewReclaimer[node](recordmgr.SchemeDEBRAPlus, 2, pool.NewDiscard[node](2), dom)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Props().CrashRecovery {
		t.Fatal("DEBRA+ must support crash recovery")
	}
}

func TestDefaultSchemeIsNone(t *testing.T) {
	r, err := recordmgr.NewReclaimer[node]("", 1, pool.NewDiscard[node](1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != recordmgr.SchemeNone {
		t.Fatalf("default scheme = %q, want none", r.Name())
	}
}

func TestPropertiesCoversAllSchemesAndReferences(t *testing.T) {
	props := recordmgr.Properties()
	if len(props) < len(recordmgr.Schemes()) {
		t.Fatalf("Properties returned %d rows, want at least %d", len(props), len(recordmgr.Schemes()))
	}
	seen := map[string]bool{}
	for _, p := range props {
		seen[p.Scheme] = true
	}
	for _, want := range []string{"DEBRA", "DEBRA+", "HP", "EBR", "None", "RC", "TS", "OA"} {
		if !seen[want] {
			t.Fatalf("Properties missing scheme %q", want)
		}
	}
}

// TestDiscardRetireAllocatesNothing: Experiment 1's configuration, a scheme
// freeing into pool.Discard, allocates nothing in a steady retire cycle. The
// discarding sink keeps the blocks of the chains it drops in the block pools
// the scheme's bags draw from.
func TestDiscardRetireAllocatesNothing(t *testing.T) {
	for _, scheme := range recordmgr.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			r, err := recordmgr.NewReclaimer[node](scheme, 1, pool.NewDiscard[node](1), nil)
			if err != nil {
				t.Fatal(err)
			}
			h := r.Handle(0)
			// A discarded record is never reused, so the cycle retires the
			// same records again; none is still in limbo by then.
			recs := make([]node, 8*blockbag.BlockSize)
			next := 0
			cycle := func() {
				for i := 0; i < 4*blockbag.BlockSize; i++ {
					h.LeaveQstate()
					h.Retire(&recs[next])
					h.EnterQstate()
					next = (next + 1) % len(recs)
				}
			}
			for i := 0; i < 8; i++ {
				cycle() // fill the limbo bags and the block pools
			}
			if n := testing.AllocsPerRun(20, cycle); n != 0 {
				t.Fatalf("a steady retire cycle into pool.Discard allocates %.1f times per %d records, want 0", n, 4*blockbag.BlockSize)
			}
		})
	}
}

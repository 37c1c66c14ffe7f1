package core_test

// Tests for the thread-slot registry: the lock-free free list, the occupancy
// the schemes' scans read, and the Record Manager's acquire/release contract —
// including the headline regression that releasing a non-quiescent slot
// panics (the slot-registry sibling of the quiescent-retire contract).

import (
	"sync"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/reclaim/hp"
)

func TestSlotRegistryAcquireRelease(t *testing.T) {
	r := core.NewSlotRegistry(3)
	if r.Capacity() != 3 {
		t.Fatalf("Capacity = %d want 3", r.Capacity())
	}
	// Slots come out dense and ascending.
	for want := 0; want < 3; want++ {
		tid, ok := r.Acquire()
		if !ok || tid != want {
			t.Fatalf("Acquire #%d = (%d, %v) want (%d, true)", want, tid, ok, want)
		}
		if !r.Occupied(tid) {
			t.Fatalf("slot %d not occupied after Acquire", tid)
		}
	}
	if _, ok := r.Acquire(); ok {
		t.Fatal("Acquire succeeded beyond capacity")
	}
	if r.Live() != 3 {
		t.Fatalf("Live = %d want 3", r.Live())
	}
	r.Release(1)
	if r.Occupied(1) {
		t.Fatal("slot 1 still occupied after Release")
	}
	if tid, ok := r.Acquire(); !ok || tid != 1 {
		t.Fatalf("re-Acquire = (%d, %v) want (1, true)", tid, ok)
	}
	// Double release and foreign release panic.
	r.Release(2)
	if !panics(func() { r.Release(2) }) {
		t.Fatal("double Release did not panic")
	}
	if !panics(func() { r.Release(99) }) {
		t.Fatal("out-of-range Release did not panic")
	}
}

func TestOccupancy(t *testing.T) {
	occ := core.NewOccupancy(3)
	// Without a registry every slot reads as occupied and the count unknown.
	if occ.Live() != -1 || !occ.Occupied(0) {
		t.Fatal("registry-less occupancy must report unknown occupancy")
	}
	if !panics(func() { occ.Attach(core.NewSlotRegistry(2)) }) {
		t.Fatal("a registry with fewer slots than the occupancy was accepted")
	}
	r := core.NewSlotRegistry(3)
	occ.Attach(r)
	if !panics(func() { occ.Attach(core.NewSlotRegistry(3)) }) {
		t.Fatal("a second registry was accepted")
	}
	if occ.Live() != 0 || occ.Occupied(0) {
		t.Fatal("fresh registry: a slot reads occupied")
	}
	tid, _ := r.Acquire()
	r.Acquire()
	if occ.Live() != 2 || !occ.Occupied(tid) || occ.Occupied(2) {
		t.Fatalf("after two acquires: live %d", occ.Live())
	}
	r.Release(tid)
	if occ.Live() != 1 || occ.Occupied(tid) {
		t.Fatalf("after a release: live %d", occ.Live())
	}
}

// TestSlotRegistryConcurrentChurn hammers the free list from many goroutines
// and asserts mutual exclusion: no slot is ever held by two goroutines at
// once. Run under -race in CI.
func TestSlotRegistryConcurrentChurn(t *testing.T) {
	const (
		capacity   = 8
		goroutines = 16
		iters      = 2000
	)
	r := core.NewSlotRegistry(capacity)
	owners := make([]int32, capacity) // 0 = free, else goroutine id+1
	var mu sync.Mutex                 // guards owners; the registry is what's under test
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tid, ok := r.Acquire()
				if !ok {
					continue // capacity oversubscribed by design
				}
				mu.Lock()
				if owners[tid] != 0 {
					mu.Unlock()
					t.Errorf("slot %d acquired by goroutine %d while held by %d", tid, g+1, owners[tid])
					return
				}
				owners[tid] = int32(g + 1)
				mu.Unlock()

				mu.Lock()
				owners[tid] = 0
				mu.Unlock()
				r.Release(tid)
			}
		}(g)
	}
	wg.Wait()
	if r.Live() != 0 {
		t.Fatalf("Live = %d after all goroutines released", r.Live())
	}
}

// TestOccupancyUnderChurn hammers acquire/release churn while reader
// goroutines continuously poll Occupancy.Occupied and Live — the schemes'
// scan-skip predicates. Live may lag individual transitions but must stay
// within [0, capacity], and must be exact once the churn quiesces. Run under
// -race in CI.
func TestOccupancyUnderChurn(t *testing.T) {
	const (
		capacity   = 8
		goroutines = 4
		iters      = 2000
	)
	occ := core.NewOccupancy(capacity)
	r := core.NewSlotRegistry(capacity)
	occ.Attach(r)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if live := occ.Live(); live < 0 || live > capacity {
					t.Errorf("live = %d outside [0, %d]", live, capacity)
					return
				}
				for tid := 0; tid < capacity; tid++ {
					occ.Occupied(tid) // either answer is legal mid-churn
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tid, ok := r.Acquire()
				if !ok {
					continue
				}
				if !occ.Occupied(tid) {
					t.Errorf("own slot %d not occupied while held", tid)
					r.Release(tid)
					return
				}
				r.Release(tid)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: the count is exact again.
	if live := occ.Live(); live != 0 {
		t.Fatalf("live = %d after churn quiesced, want 0", live)
	}
	for tid := 0; tid < capacity; tid++ {
		if occ.Occupied(tid) {
			t.Fatalf("slot %d occupied after every goroutine released", tid)
		}
	}
}

// TestReleaseHandleRequiresQuiescence is the regression mirroring the PR 3
// quiescent-retire contract: releasing a slot whose announcement is still
// active must panic, for the epoch schemes (active announcement) and hazard
// pointers (held protection slot) alike.
func TestReleaseHandleRequiresQuiescence(t *testing.T) {
	for name, build := range map[string]func(n int, sink core.FreeSink[rec]) core.Reclaimer[rec]{
		"ebr":    func(n int, s core.FreeSink[rec]) core.Reclaimer[rec] { return epochSchemes(n, s)["ebr"] },
		"qsbr":   func(n int, s core.FreeSink[rec]) core.Reclaimer[rec] { return epochSchemes(n, s)["qsbr"] },
		"debra":  func(n int, s core.FreeSink[rec]) core.Reclaimer[rec] { return epochSchemes(n, s)["debra"] },
		"debra+": func(n int, s core.FreeSink[rec]) core.Reclaimer[rec] { return epochSchemes(n, s)["debra+"] },
		"hp":     func(n int, s core.FreeSink[rec]) core.Reclaimer[rec] { return hp.New[rec](n, s) },
	} {
		t.Run(name, func(t *testing.T) {
			alloc := arena.NewBump[rec](2, 0)
			p := pool.New[rec](2, alloc)
			mgr := core.NewRecordManager[rec](alloc, p, build(2, p))

			h := mgr.AcquireHandle()
			if name == "hp" {
				// HP has no epoch announcement; "non-quiescent" means a held
				// protection slot.
				h.Protect(h.Allocate())
			} else {
				h.LeaveQstate()
			}
			if !panics(func() { mgr.ReleaseHandle(h) }) {
				t.Fatal("ReleaseHandle of a non-quiescent slot did not panic")
			}
			h.EnterQstate() // quiesce (HP: releases every slot)
			mgr.ReleaseHandle(h)

			// The slot is reusable after a legal release.
			h2 := mgr.AcquireHandle()
			if h2.Tid() != h.Tid() {
				t.Fatalf("expected slot %d to be reused, got %d", h.Tid(), h2.Tid())
			}
			mgr.ReleaseHandle(h2)
		})
	}
}

// TestAcquireReleaseRetireDrains: records retired through an acquired slot
// are fully reclaimed by Close, across slot reuse.
func TestAcquireReleaseRetireDrains(t *testing.T) {
	for _, name := range []string{"ebr", "qsbr", "debra", "debra+"} {
		t.Run(name, func(t *testing.T) {
			alloc := arena.NewBump[rec](2, 0)
			p := pool.New[rec](2, alloc)
			r := epochSchemes(2, p)[name]
			mgr := core.NewRecordManager[rec](alloc, p, r)

			const rounds = 5
			for i := 0; i < rounds; i++ {
				h := mgr.AcquireHandle()
				h.LeaveQstate()
				for j := 0; j < 11; j++ {
					h.Retire(h.Allocate())
				}
				h.EnterQstate()
				mgr.ReleaseHandle(h)
			}
			mgr.Close()
			st := mgr.Stats()
			if st.Reclaimer.Retired != rounds*11 {
				t.Fatalf("Retired = %d want %d", st.Reclaimer.Retired, rounds*11)
			}
			if st.Reclaimer.Freed != st.Reclaimer.Retired || st.Unreclaimed != 0 {
				t.Fatalf("after Close: retired=%d freed=%d unreclaimed=%d",
					st.Reclaimer.Retired, st.Reclaimer.Freed, st.Unreclaimed)
			}
		})
	}
}

// TestAcquireHandleSlotOrderAndReuse pins the property tests that need slot k
// lean on: a fresh manager hands out slots 0..n-1 in order, exhaustion is
// reported (TryAcquireHandle) or panics (AcquireHandle), and a released slot
// is the next one acquired.
func TestAcquireHandleSlotOrderAndReuse(t *testing.T) {
	const n = 3
	alloc := arena.NewBump[rec](n, 0)
	p := pool.New[rec](n, alloc)
	mgr := core.NewRecordManager[rec](alloc, p, epochSchemes(n, p)["debra"])
	if mgr.WorkerSlots() != n {
		t.Fatalf("WorkerSlots = %d want %d", mgr.WorkerSlots(), n)
	}

	hs := make([]*core.ThreadHandle[rec], n)
	for i := range hs {
		hs[i] = mgr.AcquireHandle()
		if hs[i].Tid() != i {
			t.Fatalf("acquire #%d of a fresh manager returned slot %d", i, hs[i].Tid())
		}
	}
	//lint:allow handlepair exhaustion probe: ok is asserted false, so there is no handle to release
	if _, ok := mgr.TryAcquireHandle(); ok {
		t.Fatal("TryAcquireHandle succeeded with all slots taken")
	}
	//lint:allow handlepair the acquire is asserted to panic; no handle is ever produced
	if !panics(func() { mgr.AcquireHandle() }) {
		t.Fatal("AcquireHandle did not panic on exhaustion")
	}
	mgr.ReleaseHandle(hs[1])
	if got := mgr.SlotRegistry().Live(); got != n-1 {
		t.Fatalf("Live = %d after one release, want %d", got, n-1)
	}
	h := mgr.AcquireHandle()
	if h.Tid() != 1 {
		t.Fatalf("re-acquire returned slot %d, want the released slot 1", h.Tid())
	}
	hs[1] = h
	for _, h := range hs {
		mgr.ReleaseHandle(h)
	}
}

package recordmgr_test

// Tests for the Record Manager's deterministic shutdown: Close force-frees the
// scheme's limbo.

import (
	"sync"
	"testing"

	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

// TestSyncCloseAlsoDrains: after Close, every retired record has been freed
// — nothing stranded in scheme limbo — for every
// reclaiming scheme. The leaking baseline (none) is excluded: it never frees
// by design.
func TestSyncCloseAlsoDrains(t *testing.T) {
	const threads = 3
	const ops = 1500
	for _, scheme := range recordmgr.Schemes() {
		if scheme == recordmgr.SchemeNone {
			continue
		}
		t.Run(scheme, func(t *testing.T) {
			mgr, err := recordmgr.Build[node](recordmgr.Config{
				Scheme:  scheme,
				Threads: threads,
				UsePool: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			hs := reclaimtest.AcquireSlots(threads, mgr.AcquireHandle)
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						retireOne(hs[tid])
					}
				}(tid)
			}
			wg.Wait()
			mgr.Close()
			st := mgr.Stats()
			if st.Reclaimer.Retired != threads*ops {
				t.Fatalf("retired %d want %d", st.Reclaimer.Retired, threads*ops)
			}
			if st.Reclaimer.Freed != st.Reclaimer.Retired || st.Unreclaimed != 0 {
				t.Fatalf("after Close: retired=%d freed=%d unreclaimed=%d",
					st.Reclaimer.Retired, st.Reclaimer.Freed, st.Unreclaimed)
			}
		})
	}
}

// TestCloseIdempotent: Close twice is fine; stats stay consistent. The ten
// retires stay in limbo, so the first Close is what frees them.
func TestCloseIdempotent(t *testing.T) {
	mgr, err := recordmgr.Build[node](recordmgr.Config{
		Scheme: recordmgr.SchemeEBR, Threads: 1, UsePool: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := reclaimtest.AcquireSlots(1, mgr.AcquireHandle)
	hs[0].LeaveQstate()
	for i := 0; i < 10; i++ {
		hs[0].Retire(hs[0].Allocate())
	}
	hs[0].EnterQstate()
	if got := mgr.Stats().Unreclaimed; got != 10 {
		t.Fatalf("Unreclaimed = %d before Close, want 10", got)
	}
	mgr.Close()
	st1 := mgr.Stats()
	mgr.Close()
	st2 := mgr.Stats()
	if st1 != st2 {
		t.Fatalf("second Close changed stats: %+v -> %+v", st1, st2)
	}
	if st2.Reclaimer.Freed != st2.Reclaimer.Retired || st2.Reclaimer.Retired != 10 {
		t.Fatalf("close did not drain: %+v", st2)
	}
}

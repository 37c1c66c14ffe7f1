package recordmgr_test

// Microbenchmarks for the Record Manager's per-operation primitives — the
// constants the hot-path work (single-writer counters, per-thread handles)
// exists to shrink — issued the way a worker does: acquire a handle once,
// then zero slice indexing per op. Run with:
//
//	go test -bench Micro -run '^$' ./internal/recordmgr/

import (
	"testing"

	"repro/internal/recordmgr"
)

func BenchmarkMicroPinUnpin(b *testing.B) {
	for _, scheme := range recordmgr.Schemes() {
		b.Run(scheme, func(b *testing.B) {
			mgr := recordmgr.MustBuild[node](recordmgr.Config{Scheme: scheme, Threads: 2, UsePool: true})
			h := mgr.AcquireHandle()
			defer mgr.ReleaseHandle(h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.LeaveQstate()
				h.EnterQstate()
			}
		})
	}
}

func BenchmarkMicroAllocRetire(b *testing.B) {
	for _, scheme := range recordmgr.Schemes() {
		if scheme == recordmgr.SchemeNone {
			continue
		}
		b.Run(scheme, func(b *testing.B) {
			mgr := recordmgr.MustBuild[node](recordmgr.Config{Scheme: scheme, Threads: 2, UsePool: true})
			h := mgr.AcquireHandle()
			defer mgr.ReleaseHandle(h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.LeaveQstate()
				h.Retire(h.Allocate())
				h.EnterQstate()
			}
		})
	}
}

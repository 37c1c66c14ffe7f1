package recordmgr_test

// Microbenchmarks for the Record Manager's per-operation primitives — the
// constants the hot-path work (single-writer counters, per-thread handles)
// exists to shrink — issued the way a worker does: acquire a handle once,
// then zero slice indexing per op. Run with:
//
//	go test -bench Micro -run '^$' ./internal/recordmgr/

import (
	"fmt"
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

// BenchmarkMicroAllocRetire is one operation that allocates a record and
// retires it, on one of two held slots; the other stays quiescent. Both slots
// are occupied, so an epoch scheme's pass reads a real announcement instead of
// taking Verify's lone-occupant shortcut, and the cost covers the scheme's
// scan, advances and frees as well as the allocation and the retire.
func BenchmarkMicroAllocRetire(b *testing.B) {
	for _, scheme := range recordmgr.Schemes() {
		if scheme == recordmgr.SchemeNone {
			continue
		}
		b.Run(scheme, func(b *testing.B) {
			mgr := recordmgr.MustBuild[node](recordmgr.Config{Scheme: scheme, Threads: 2, UsePool: true})
			h := mgr.AcquireHandle()
			defer mgr.ReleaseHandle(h)
			idle := mgr.AcquireHandle()
			defer mgr.ReleaseHandle(idle)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.LeaveQstate()
				h.Retire(h.Allocate())
				h.EnterQstate()
			}
		})
	}
}

// BenchmarkMicroProtect is hazard pointers' per-record cost: one operation
// protects k distinct records, unprotects them and quiesces. A protect that
// reads only the slots in use stays flat in hp.DefaultSlots.
func BenchmarkMicroProtect(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%s/k=%d", recordmgr.SchemeHP, k), func(b *testing.B) {
			mgr := recordmgr.MustBuild[node](recordmgr.Config{Scheme: recordmgr.SchemeHP, Threads: 2, UsePool: true})
			h := mgr.AcquireHandle()
			defer mgr.ReleaseHandle(h)
			recs := make([]*node, k)
			for i := range recs {
				recs[i] = h.Allocate()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.LeaveQstate()
				for _, rec := range recs {
					h.Protect(rec)
				}
				for _, rec := range recs {
					h.Unprotect(rec)
				}
				h.EnterQstate()
			}
		})
	}
}

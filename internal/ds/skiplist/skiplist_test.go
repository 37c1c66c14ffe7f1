package skiplist_test

import (
	"math/rand"
	"repro/internal/reclaimtest"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/skiplist"
	"repro/internal/pool"
	"repro/internal/reclaim/debra"
	"repro/internal/reclaim/epoch"
	"repro/internal/reclaim/hp"
	"repro/internal/recordmgr"
)

// schemes usable with the lock-based skip list (no DEBRA+; see package doc).
func schemes() []string {
	return []string{
		recordmgr.SchemeNone,
		recordmgr.SchemeEBR,
		recordmgr.SchemeQSBR,
		recordmgr.SchemeDEBRA,
		recordmgr.SchemeHP,
	}
}

func newList(t testing.TB, scheme string, threads int) *skiplist.List[int64] {
	t.Helper()
	mgr, err := recordmgr.Build[skiplist.Node[int64]](recordmgr.Config{
		Scheme:    scheme,
		Threads:   threads,
		Allocator: recordmgr.AllocBump,
		UsePool:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return skiplist.New(mgr, threads)
}

func newFastDebraList(t testing.TB, threads int) *skiplist.List[int64] {
	t.Helper()
	type node = skiplist.Node[int64]
	alloc := arena.NewBump[node](threads, 0)
	pl := pool.New[node](threads, alloc)
	rcl := debra.New[node](threads, pl, epoch.WithIncrThresh(4))
	return skiplist.New(core.NewRecordManager[node](alloc, pl, rcl), threads)
}

func newAggressiveHPList(t testing.TB, threads int) *skiplist.List[int64] {
	t.Helper()
	type node = skiplist.Node[int64]
	alloc := arena.NewBump[node](threads, 0)
	pl := pool.New[node](threads, alloc)
	rcl := hp.New[node](threads, pl, hp.WithRetireThreshold(64))
	return skiplist.New(core.NewRecordManager[node](alloc, pl, rcl), threads)
}

func TestRejectsDebraPlus(t *testing.T) {
	mgr := recordmgr.MustBuild[skiplist.Node[int64]](recordmgr.Config{
		Scheme:  recordmgr.SchemeDEBRAPlus,
		Threads: 1,
		UsePool: true,
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: a lock-based structure must refuse a neutralizing reclaimer")
		}
	}()
	skiplist.New(mgr, 1)
}

func TestBasicOperations(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme, func(t *testing.T) {
			l := newList(t, scheme, 1)
			hs := reclaimtest.AcquireSlots(1, l.AcquireHandle)
			if hs[0].Contains(5) {
				t.Fatal("empty list contains 5")
			}
			if !hs[0].Insert(5, 50) {
				t.Fatal("insert failed")
			}
			if hs[0].Insert(5, 51) {
				t.Fatal("duplicate insert succeeded")
			}
			if v, ok := hs[0].Get(5); !ok || v != 50 {
				t.Fatalf("Get(5) = %d, %v", v, ok)
			}
			if hs[0].Delete(6) {
				t.Fatal("deleted a missing key")
			}
			if !hs[0].Delete(5) {
				t.Fatal("delete failed")
			}
			if hs[0].Contains(5) {
				t.Fatal("contains after delete")
			}
			if err := l.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSequentialAgainstModel(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme, func(t *testing.T) {
			l := newList(t, scheme, 1)
			hs := reclaimtest.AcquireSlots(1, l.AcquireHandle)
			model := map[int64]int64{}
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 5000; i++ {
				k := rng.Int63n(200)
				switch rng.Intn(3) {
				case 0:
					_, in := model[k]
					if hs[0].Insert(k, k) == in {
						t.Fatalf("Insert(%d) disagrees with model at op %d", k, i)
					}
					model[k] = k
				case 1:
					_, in := model[k]
					if hs[0].Delete(k) != in {
						t.Fatalf("Delete(%d) disagrees with model at op %d", k, i)
					}
					delete(model, k)
				default:
					_, ok := hs[0].Get(k)
					if _, in := model[k]; ok != in {
						t.Fatalf("Get(%d) disagrees with model at op %d", k, i)
					}
				}
			}
			if l.Len() != len(model) {
				t.Fatalf("final size %d, model %d", l.Len(), len(model))
			}
			l.ForEach(func(k, v int64) bool {
				if mv, ok := model[k]; !ok || mv != v {
					t.Fatalf("list has (%d,%d) not in model", k, v)
				}
				return true
			})
			if err := l.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestQuickSequentialModel(t *testing.T) {
	f := func(ops []uint16) bool {
		l := newFastDebraList(t, 1)
		hs := reclaimtest.AcquireSlots(1, l.AcquireHandle)
		model := map[int64]bool{}
		for i, op := range ops {
			k := int64(op % 64)
			switch i % 3 {
			case 0:
				if hs[0].Insert(k, k) == model[k] {
					return false
				}
				model[k] = true
			case 1:
				if hs[0].Delete(k) != model[k] {
					return false
				}
				delete(model, k)
			default:
				if hs[0].Contains(k) != model[k] {
					return false
				}
			}
		}
		return l.Len() == len(model) && l.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func concurrentStripes(t *testing.T, l *skiplist.List[int64], threads, ops int) {
	t.Helper()
	const stripe = 1 << 20
	hs := reclaimtest.AcquireSlots(threads, l.AcquireHandle)
	finals := make([]map[int64]int64, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid) + 7))
			model := map[int64]int64{}
			base := int64(tid) * stripe
			for i := 0; i < ops; i++ {
				k := base + rng.Int63n(200)
				switch rng.Intn(3) {
				case 0:
					_, in := model[k]
					if hs[tid].Insert(k, k) == in {
						t.Errorf("tid %d: Insert(%d) inconsistent", tid, k)
						return
					}
					model[k] = k
				case 1:
					_, in := model[k]
					if hs[tid].Delete(k) != in {
						t.Errorf("tid %d: Delete(%d) inconsistent", tid, k)
						return
					}
					delete(model, k)
				default:
					if _, ok := hs[tid].Get(k); ok != (model[k] != 0) {
						_, in := model[k]
						if ok != in {
							t.Errorf("tid %d: Get(%d) inconsistent", tid, k)
							return
						}
					}
				}
			}
			finals[tid] = model
		}(tid)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := map[int64]int64{}
	for _, m := range finals {
		for k, v := range m {
			want[k] = v
		}
	}
	got := map[int64]int64{}
	l.ForEach(func(k, v int64) bool { got[k] = v; return true })
	if len(got) != len(want) {
		t.Fatalf("final list has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("key %d: got (%d,%v) want %d", k, gv, ok, v)
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjointStripes(t *testing.T) {
	const threads = 6
	for _, scheme := range schemes() {
		t.Run(scheme, func(t *testing.T) {
			concurrentStripes(t, newList(t, scheme, threads), threads, 2500)
		})
	}
}

func TestConcurrentDisjointStripesAggressiveHP(t *testing.T) {
	const threads = 6
	l := newAggressiveHPList(t, threads)
	concurrentStripes(t, l, threads, 2000)
	if l.Manager().Stats().Reclaimer.Freed == 0 {
		t.Fatal("HP reclaimer never freed a node")
	}
}

func TestConcurrentSharedKeys(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme, func(t *testing.T) {
			const threads = 8
			l := newList(t, scheme, threads)
			hs := reclaimtest.AcquireSlots(threads, l.AcquireHandle)
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid) * 31))
					for i := 0; i < 2500; i++ {
						k := rng.Int63n(48)
						switch rng.Intn(3) {
						case 0:
							hs[tid].Insert(k, k)
						case 1:
							hs[tid].Delete(k)
						default:
							hs[tid].Get(k)
						}
					}
				}(tid)
			}
			wg.Wait()
			if err := l.Validate(); err != nil {
				t.Fatal(err)
			}
			seen := map[int64]bool{}
			l.ForEach(func(k, v int64) bool {
				if seen[k] {
					t.Fatalf("duplicate key %d in final list", k)
				}
				seen[k] = true
				return true
			})
		})
	}
}

func TestReclamationRecyclesNodes(t *testing.T) {
	l := newFastDebraList(t, 1)
	hs := reclaimtest.AcquireSlots(1, l.AcquireHandle)
	for i := 0; i < 20000; i++ {
		k := int64(i % 32)
		hs[0].Insert(k, k)
		hs[0].Delete(k)
	}
	st := l.Manager().Stats()
	if st.Reclaimer.Freed == 0 || st.Pool.Reused == 0 {
		t.Fatalf("reclamation pipeline inactive: %+v", st.Reclaimer)
	}
	if st.Alloc.Allocated > 20000 {
		t.Fatalf("allocator served %d nodes; expected heavy reuse", st.Alloc.Allocated)
	}
}

func TestNewValidation(t *testing.T) {
	mgr := recordmgr.MustBuild[skiplist.Node[int64]](recordmgr.Config{Scheme: recordmgr.SchemeDEBRA, Threads: 1, UsePool: true})
	if !panics(func() { skiplist.New[int64](nil, 1) }) {
		t.Fatal("expected panic for nil manager")
	}
	if !panics(func() { skiplist.New(mgr, 0) }) {
		t.Fatal("expected panic for zero threads")
	}
	if !panics(func() { newList(t, recordmgr.SchemeDEBRA, 1).AcquireHandle().Insert(-1<<63, 0) }) {
		t.Fatal("expected panic for out-of-range key")
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

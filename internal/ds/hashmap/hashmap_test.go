package hashmap_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/hashmap"
	"repro/internal/pool"
	"repro/internal/reclaim/hp"
	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

var allSchemes = hashmap.AllSchemes

// newMap builds a map for the named scheme with a bump allocator and pool.
func newMap(t testing.TB, scheme string, threads int, opts ...hashmap.Option) *hashmap.Map[int64] {
	t.Helper()
	mgr, err := recordmgr.Build[hashmap.Node[int64]](recordmgr.Config{
		Scheme:    scheme,
		Threads:   threads,
		Allocator: recordmgr.AllocBump,
		UsePool:   true,
	})
	if err != nil {
		t.Fatalf("building record manager: %v", err)
	}
	return hashmap.New(mgr, threads, opts...)
}

func TestEmptyMap(t *testing.T) {
	m := newMap(t, recordmgr.SchemeDEBRA, 1)
	hs := reclaimtest.AcquireSlots(1, m.AcquireHandle)
	if hs[0].Contains(42) {
		t.Fatal("empty map claims to contain a key")
	}
	if hs[0].Delete(42) {
		t.Fatal("empty map deleted a key")
	}
	if _, ok := hs[0].Get(42); ok {
		t.Fatal("empty map returned a value")
	}
	if m.Len() != 0 || m.Count() != 0 {
		t.Fatalf("empty map has Len=%d Count=%d", m.Len(), m.Count())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGetDelete(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m := newMap(t, scheme, 1)
			hs := reclaimtest.AcquireSlots(1, m.AcquireHandle)
			if !hs[0].Insert(1, 100) {
				t.Fatal("first insert failed")
			}
			if hs[0].Insert(1, 200) {
				t.Fatal("duplicate insert succeeded")
			}
			if v, ok := hs[0].Get(1); !ok || v != 100 {
				t.Fatalf("Get(1) = %d,%v want 100,true (duplicate insert must not replace)", v, ok)
			}
			if !hs[0].Delete(1) {
				t.Fatal("delete of present key failed")
			}
			if hs[0].Delete(1) {
				t.Fatal("delete of absent key succeeded")
			}
			if hs[0].Contains(1) {
				t.Fatal("deleted key still present")
			}
			// Reinsertion after delete recycles through the pool.
			if !hs[0].Insert(1, 300) {
				t.Fatal("reinsert failed")
			}
			if v, _ := hs[0].Get(1); v != 300 {
				t.Fatalf("reinserted value = %d want 300", v)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFullKeyRange(t *testing.T) {
	// The split-ordered list needs no sentinel keys: the extremes of int64
	// are usable, including negatives.
	m := newMap(t, recordmgr.SchemeDEBRA, 1)
	hs := reclaimtest.AcquireSlots(1, m.AcquireHandle)
	keys := []int64{0, -1, 1, 1<<63 - 1, -1 << 63, 1234567890123456789}
	for _, k := range keys {
		if !hs[0].Insert(k, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	for _, k := range keys {
		if v, ok := hs[0].Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len=%d want %d", m.Len(), len(keys))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeGrowth(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m := newMap(t, scheme, 1, hashmap.WithInitialBuckets(2), hashmap.WithMaxLoad(2))
			hs := reclaimtest.AcquireSlots(1, m.AcquireHandle)
			const n = 2000
			for i := int64(0); i < n; i++ {
				if !hs[0].Insert(i, i*10) {
					t.Fatalf("insert %d failed", i)
				}
			}
			if got := m.Buckets(); got <= 2 {
				t.Fatalf("table never grew: %d buckets", got)
			}
			if s := m.Stats(); s.Resizes == 0 || s.Dummies == 0 {
				t.Fatalf("expected resizes and dummy splices, got %+v", s)
			}
			for i := int64(0); i < n; i++ {
				if v, ok := hs[0].Get(i); !ok || v != i*10 {
					t.Fatalf("after resize Get(%d) = %d,%v", i, v, ok)
				}
			}
			if m.Len() != n || m.Count() != n {
				t.Fatalf("Len=%d Count=%d want %d", m.Len(), m.Count(), n)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGrowPatience: the table doubles once 1/64 of maxLoad*size inserts have
// found it over the limit, whether the count climbed past the limit or keeps
// coming back over it.
func TestGrowPatience(t *testing.T) {
	const size, full, patience = 64, hashmap.DefaultMaxLoad * 64, hashmap.DefaultMaxLoad * 64 / 64
	t.Run("climbing", func(t *testing.T) {
		m := newMap(t, recordmgr.SchemeDEBRA, 1, hashmap.WithInitialBuckets(size))
		hs := reclaimtest.AcquireSlots(1, m.AcquireHandle)
		for key := int64(0); key < full+patience; key++ {
			hs[0].Insert(key, key)
		}
		if got := m.Buckets(); got != size {
			t.Fatalf("%d keys in %d buckets: doubled before its patience ran out", m.Count(), got)
		}
		hs[0].Insert(full+patience, 0)
		if got := m.Buckets(); got != 2*size {
			t.Fatalf("%d keys in %d buckets: did not double", m.Count(), got)
		}
	})
	t.Run("hovering", func(t *testing.T) {
		m := newMap(t, recordmgr.SchemeDEBRA, 1, hashmap.WithInitialBuckets(size))
		hs := reclaimtest.AcquireSlots(1, m.AcquireHandle)
		for key := int64(0); key < full; key++ {
			hs[0].Insert(key, key)
		}
		for i := 0; i < patience; i++ { // full+1 keys and back, again and again
			hs[0].Insert(full, 0)
			hs[0].Delete(full)
		}
		if got := m.Buckets(); got != size {
			t.Fatalf("%d keys in %d buckets: doubled before its patience ran out", m.Count(), got)
		}
		hs[0].Insert(full, 0)
		if got := m.Buckets(); got != 2*size {
			t.Fatalf("%d keys in %d buckets: did not double", m.Count(), got)
		}
	})
}

func TestMaxBucketsCap(t *testing.T) {
	m := newMap(t, recordmgr.SchemeNone, 1,
		hashmap.WithInitialBuckets(2), hashmap.WithMaxLoad(1), hashmap.WithMaxBuckets(4))
	hs := reclaimtest.AcquireSlots(1, m.AcquireHandle)
	for i := int64(0); i < 200; i++ {
		hs[0].Insert(i, i)
	}
	if got := m.Buckets(); got > 4 {
		t.Fatalf("table grew past the cap: %d buckets", got)
	}
	if m.Len() != 200 {
		t.Fatalf("Len=%d want 200", m.Len())
	}
}

func TestForEachAndLen(t *testing.T) {
	m := newMap(t, recordmgr.SchemeEBR, 1)
	hs := reclaimtest.AcquireSlots(1, m.AcquireHandle)
	want := map[int64]int64{}
	for i := int64(0); i < 300; i++ {
		hs[0].Insert(i, i*i)
		want[i] = i * i
	}
	for i := int64(0); i < 300; i += 3 {
		hs[0].Delete(i)
		delete(want, i)
	}
	got := map[int64]int64{}
	m.ForEach(func(k, v int64) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) || m.Len() != len(want) {
		t.Fatalf("iterated %d keys, Len=%d, want %d", len(got), m.Len(), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: got %d want %d", k, got[k], v)
		}
	}
	// Early termination.
	visits := 0
	m.ForEach(func(int64, int64) bool {
		visits++
		return visits < 5
	})
	if visits != 5 {
		t.Fatalf("ForEach visited %d after stop request", visits)
	}
}

func TestAgainstModelSequential(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m := newMap(t, scheme, 1, hashmap.WithInitialBuckets(2), hashmap.WithMaxLoad(2))
			hs := reclaimtest.AcquireSlots(1, m.AcquireHandle)
			model := map[int64]int64{}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 20000; i++ {
				key := rng.Int63n(512)
				switch rng.Intn(3) {
				case 0:
					_, present := model[key]
					if hs[0].Insert(key, key) == present {
						t.Fatalf("op %d: Insert(%d) disagrees with model (present=%v)", i, key, present)
					}
					model[key] = key
				case 1:
					_, present := model[key]
					if hs[0].Delete(key) != present {
						t.Fatalf("op %d: Delete(%d) disagrees with model (present=%v)", i, key, present)
					}
					delete(model, key)
				default:
					_, present := model[key]
					if hs[0].Contains(key) != present {
						t.Fatalf("op %d: Contains(%d) disagrees with model (present=%v)", i, key, present)
					}
				}
			}
			if m.Len() != len(model) {
				t.Fatalf("final Len=%d want %d", m.Len(), len(model))
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// --- reclaimtest wiring: poison-sink safety harness under every scheme ------

// mapWorker adapts an acquired hashmap.Handle to the reclaimtest.Worker
// surface.
type mapWorker struct{ h *hashmap.Handle[int64] }

func (w mapWorker) Insert(key int64) bool   { return w.h.Insert(key, key) }
func (w mapWorker) Delete(key int64) bool   { return w.h.Delete(key) }
func (w mapWorker) Contains(key int64) bool { return w.h.Contains(key) }
func (w mapWorker) Release()                { w.h.Map().ReleaseHandle(w.h) }

// acquireMapWorker is the SetUnderTest.AcquireWorker of a map.
func acquireMapWorker(m *hashmap.Map[int64]) func() reclaimtest.Worker {
	return func() reclaimtest.Worker { return mapWorker{m.AcquireHandle()} }
}

// poisonedMapFactory builds a map whose pool poisons freed records and whose
// visit hook counts observations of poisoned records, for the given
// reclaimer constructor.
func poisonedMapFactory(newReclaimer func(n int, sink core.FreeSink[hashmap.Node[int64]]) core.Reclaimer[hashmap.Node[int64]]) reclaimtest.SetFactory {
	return func(n int) reclaimtest.SetUnderTest {
		type rec = hashmap.Node[int64]
		alloc := arena.NewBump[rec](n, 0)
		pp := reclaimtest.NewPoisonPool[rec, *rec](pool.New[rec](n, alloc))
		rcl := newReclaimer(n, pp)
		mgr := core.NewRecordManager[rec](alloc, pp, rcl)
		// Start tiny with an aggressive load factor so the stress exercises
		// incremental resizing and dummy splicing, not just list churn.
		m := hashmap.New[int64](mgr, n, hashmap.WithInitialBuckets(2), hashmap.WithMaxLoad(2))
		var violations atomic.Int64
		m.SetVisitHook(func(_ int, nd *hashmap.Node[int64]) {
			if nd.IsPoisoned() {
				violations.Add(1)
			}
		})
		return reclaimtest.SetUnderTest{
			AcquireWorker: acquireMapWorker(m),
			Violations:    violations.Load,
			DoubleFrees:   pp.DoubleFrees,
			Stats:         rcl.Stats,
			Validate:      m.Validate,
		}
	}
}

// poisonedChurnMapFactory builds a poison-instrumented map whose Record
// Manager has more worker slots than stress goroutines (MaxThreads-style
// headroom), exposing the AcquireHandle/ReleaseHandle surface so the churn
// stress can migrate goroutines across slots.
func poisonedChurnMapFactory(t *testing.T, scheme string) reclaimtest.SetFactory {
	return func(n int) reclaimtest.SetUnderTest {
		type rec = hashmap.Node[int64]
		// Two spare slots beyond the goroutine count: releases and acquires
		// then genuinely migrate tids instead of always reusing the same one.
		slots := n + 2
		alloc := arena.NewBump[rec](slots, 0)
		pp := reclaimtest.NewPoisonPool[rec, *rec](pool.New[rec](slots, alloc))
		rcl := named(t, scheme)(slots, pp)
		mgr := core.NewRecordManager[rec](alloc, pp, rcl)
		m := hashmap.New[int64](mgr, slots, hashmap.WithInitialBuckets(2), hashmap.WithMaxLoad(2))
		var violations atomic.Int64
		m.SetVisitHook(func(_ int, nd *hashmap.Node[int64]) {
			if nd.IsPoisoned() {
				violations.Add(1)
			}
		})
		return reclaimtest.SetUnderTest{
			AcquireWorker: acquireMapWorker(m),
			Violations:    violations.Load,
			DoubleFrees:   pp.DoubleFrees,
			Stats:         rcl.Stats,
			Validate:      m.Validate,
			Close:         mgr.Close,
			// Every reclaiming scheme must end with Retired == Freed once
			// Close has drained; the leaking baseline keeps its garbage by
			// design.
			RequireDrained: scheme != recordmgr.SchemeNone,
		}
	}
}

// TestStressSlotChurn is the slot-churn poison-sink stress of the dynamic
// thread-slot registry: goroutines continually acquire a slot, work, and
// release it (which returns its pool cache), across every scheme, with two spare slots so tids genuinely migrate
// between goroutines. A poisoned read after
// slot reuse, a double free during shutdown draining, a wrong answer on a
// goroutine-private key, or leftover limbo after Close fails the test. Run
// under -race in CI.
func TestStressSlotChurn(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			opts := reclaimtest.DefaultSetStressOptions()
			opts.Duration = 100 * time.Millisecond
			opts.OpsPerSlot = 48
			reclaimtest.StressSetChurn(t, poisonedChurnMapFactory(t, scheme), opts)
		})
	}
}

// named returns the constructor of the named scheme in the shape the poisoned
// factories take.
func named(t *testing.T, scheme string) func(n int, sink core.FreeSink[hashmap.Node[int64]]) core.Reclaimer[hashmap.Node[int64]] {
	return func(n int, sink core.FreeSink[hashmap.Node[int64]]) core.Reclaimer[hashmap.Node[int64]] {
		rcl, err := recordmgr.NewReclaimer[hashmap.Node[int64]](scheme, n, sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rcl
	}
}

// TestStressAllSchemes runs the poison-sink safety stress under every scheme
// the map accepts: the claim of this data structure is that each drops in
// unchanged.
func TestStressAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			reclaimtest.StressSet(t, poisonedMapFactory(named(t, scheme)), reclaimtest.DefaultSetStressOptions())
		})
	}
}

// TestStressWaitFreeGet is the poison-sink stress of the epoch schemes' read
// path: seven operations in ten are Contains, so the wait-free walk spends
// the run stepping through marked, unlinked and retired nodes behind a
// stream of deletes, and its per-hop visit hook fails the test if any of
// them was already freed. Small enough for `go test -race -short`.
func TestStressWaitFreeGet(t *testing.T) {
	for _, scheme := range hashmap.EpochSchemes {
		t.Run(scheme, func(t *testing.T) {
			factory := poisonedMapFactory(named(t, scheme))
			opts := reclaimtest.DefaultSetStressOptions()
			opts.InsertPct, opts.DeletePct = 15, 15
			opts.KeyRange = 128 // few keys: every chain a Get walks is being deleted from
			reclaimtest.StressSet(t, factory, opts)
		})
	}
}

// TestStressAggressiveHP shrinks the HP retire threshold so hazard pointer
// scans (and frees behind unprotected readers) happen constantly.
func TestStressAggressiveHP(t *testing.T) {
	type rec = hashmap.Node[int64]
	factory := poisonedMapFactory(func(n int, sink core.FreeSink[rec]) core.Reclaimer[rec] {
		return hp.New[rec](n, sink, hp.WithRetireThreshold(32))
	})
	opts := reclaimtest.DefaultSetStressOptions()
	opts.Duration = 300 * time.Millisecond
	reclaimtest.StressSet(t, factory, opts)
}

// --- concurrent churn under the race detector -------------------------------

// TestConcurrentChurn drives every scheme with plain goroutine churn and
// per-thread disjoint final states, small enough to stay fast under
// `go test -race -short`.
func TestConcurrentChurn(t *testing.T) {
	threads := 4
	iters := int64(3000)
	if testing.Short() {
		iters = 800
	}
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m := newMap(t, scheme, threads, hashmap.WithInitialBuckets(2), hashmap.WithMaxLoad(2))
			hs := reclaimtest.AcquireSlots(threads, m.AcquireHandle)
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					base := int64(tid) * iters
					// Insert a private band, churn a shared band, then
					// delete every other private key.
					for i := int64(0); i < iters; i++ {
						if !hs[tid].Insert(base+i, base+i) {
							t.Errorf("tid %d: insert %d failed", tid, base+i)
							return
						}
						shared := -1 - (i % 97) // negative: disjoint from bands
						hs[tid].Insert(shared, shared)
						hs[tid].Contains(shared)
						hs[tid].Delete(shared)
					}
					for i := int64(0); i < iters; i += 2 {
						if !hs[tid].Delete(base + i) {
							t.Errorf("tid %d: delete %d failed", tid, base+i)
							return
						}
					}
				}(tid)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Every thread's odd private keys survive.
			for tid := 0; tid < threads; tid++ {
				base := int64(tid) * iters
				for i := int64(1); i < iters; i += 2 {
					if !hs[0].Contains(base + i) {
						t.Fatalf("surviving key %d missing", base+i)
					}
				}
				if hs[0].Contains(base) {
					t.Fatalf("deleted key %d still present", base)
				}
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			st := m.Manager().Stats()
			if st.Reclaimer.Freed > st.Reclaimer.Retired {
				t.Fatalf("freed %d > retired %d", st.Reclaimer.Freed, st.Reclaimer.Retired)
			}
		})
	}
}

// TestConcurrentReaders checks lock-free readers against a steady writer.
func TestConcurrentReaders(t *testing.T) {
	threads := 4
	m := newMap(t, recordmgr.SchemeHP, threads, hashmap.WithInitialBuckets(4))
	hs := reclaimtest.AcquireSlots(threads, m.AcquireHandle)
	const keys = 128
	for i := int64(0); i < keys; i++ {
		hs[0].Insert(i, i)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	// Writer flips keys in and out.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for !stop.Load() {
			k := rng.Int63n(keys)
			if !hs[0].Delete(k) {
				hs[0].Insert(k, k)
			}
		}
	}()
	for tid := 1; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid)))
			for !stop.Load() {
				k := rng.Int63n(keys)
				if v, ok := hs[tid].Get(k); ok && v != k {
					t.Errorf("Get(%d) returned foreign value %d", k, v)
					return
				}
			}
		}(tid)
	}
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}

// --- Upsert -----------------------------------------------------------------

func TestUpsertSequential(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m := newMap(t, scheme, 1, hashmap.WithInitialBuckets(2), hashmap.WithMaxLoad(2))
			hs := reclaimtest.AcquireSlots(1, m.AcquireHandle)
			model := map[int64]int64{}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 10000; i++ {
				key := rng.Int63n(256)
				switch rng.Intn(4) {
				case 0:
					want, present := model[key]
					prev, replaced := hs[0].Upsert(key, int64(i))
					if replaced != present || (present && prev != want) {
						t.Fatalf("op %d: Upsert(%d) = (%d,%v), model (%d,%v)", i, key, prev, replaced, want, present)
					}
					model[key] = int64(i)
				case 1:
					_, present := model[key]
					if hs[0].Delete(key) != present {
						t.Fatalf("op %d: Delete(%d) disagrees with model", i, key)
					}
					delete(model, key)
				case 2:
					_, present := model[key]
					if hs[0].Insert(key, int64(i)) == present {
						t.Fatalf("op %d: Insert(%d) disagrees with model", i, key)
					}
					if !present {
						model[key] = int64(i)
					}
				default:
					want, present := model[key]
					got, ok := hs[0].Get(key)
					if ok != present || (present && got != want) {
						t.Fatalf("op %d: Get(%d) = (%d,%v), model (%d,%v)", i, key, got, ok, want, present)
					}
				}
			}
			if m.Len() != len(model) {
				t.Fatalf("final Len=%d want %d", m.Len(), len(model))
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUpsertConcurrent hammers a small key set with concurrent upserts and
// readers: every observed value must be one some thread actually wrote for
// that key (values encode (key, writer) so cross-key leaks are caught), and
// the final state must be consistent.
func TestUpsertConcurrent(t *testing.T) {
	threads := 4
	const keys = 32
	iters := int64(4000)
	if testing.Short() {
		iters = 1000
	}
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m := newMap(t, scheme, threads, hashmap.WithInitialBuckets(2), hashmap.WithMaxLoad(2))
			hs := reclaimtest.AcquireSlots(threads, m.AcquireHandle)
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid) + 99))
					for i := int64(0); i < iters; i++ {
						key := rng.Int63n(keys)
						if rng.Intn(4) == 0 {
							if v, ok := hs[tid].Get(key); ok && v%keys != key {
								t.Errorf("Get(%d) observed value %d written for key %d", key, v, v%keys)
								return
							}
						} else {
							// value encodes the key so readers can detect
							// cross-key corruption.
							hs[tid].Upsert(key, key+keys*(int64(tid)*iters+i))
						}
					}
				}(tid)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			m.ForEach(func(k, v int64) bool {
				if v%keys != k {
					t.Errorf("final value %d does not belong to key %d", v, k)
					return false
				}
				return true
			})
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			if c, l := m.Count(), m.Len(); c != l {
				t.Fatalf("Count=%d disagrees with Len=%d", c, l)
			}
		})
	}
}

func TestNewPanics(t *testing.T) {
	if !panics(func() { hashmap.New[int64](nil, 1) }) {
		t.Fatal("New(nil) did not panic")
	}
	mgr := recordmgr.MustBuild[hashmap.Node[int64]](recordmgr.Config{Scheme: recordmgr.SchemeNone, Threads: 1})
	if !panics(func() { hashmap.New(mgr, 0) }) {
		t.Fatal("New with 0 threads did not panic")
	}
	plus := recordmgr.MustBuild[hashmap.Node[int64]](recordmgr.Config{Scheme: recordmgr.SchemeDEBRAPlus, Threads: 1, UsePool: true})
	if !panics(func() { hashmap.New(plus, 1) }) {
		t.Fatal("New accepted a debra+ manager")
	}
	// Links are record indices: the allocator must number the records, and
	// since its directory keeps them all alive, freed ones must be recycled.
	unpooled := recordmgr.MustBuild[hashmap.Node[int64]](recordmgr.Config{Scheme: recordmgr.SchemeDEBRA, Threads: 1})
	if !panics(func() { hashmap.New(unpooled, 1) }) {
		t.Fatal("New accepted a manager without a pool")
	}
	heap := recordmgr.MustBuild[hashmap.Node[int64]](recordmgr.Config{
		Scheme: recordmgr.SchemeDEBRA, Threads: 1, Allocator: recordmgr.AllocHeap, UsePool: true,
	})
	if !panics(func() { hashmap.New(heap, 1) }) {
		t.Fatal("New accepted a heap allocator, which does not number its records")
	}
}

// TestDeleteRecordCounts pins the per-update record arithmetic: a Delete
// that hits takes no record and retires its victim alone (the mark is a bit
// in the victim's link, not a node); a Delete that misses takes and retires
// nothing; a replacing Upsert takes the replacement and retires the node it
// replaced; an Insert of a present key parks what it took, and the next
// update of the slot takes that.
func TestDeleteRecordCounts(t *testing.T) {
	for _, scheme := range []string{recordmgr.SchemeDEBRA, recordmgr.SchemeHP} {
		t.Run(scheme, func(t *testing.T) {
			m := newMap(t, scheme, 1)
			mgr := m.Manager()
			h := m.AcquireHandle()
			defer m.ReleaseHandle(h)
			for k := int64(0); k < 64; k += 2 {
				h.Insert(k, k)
			}
			counts := func() (taken, retired int64) {
				st := mgr.Stats()
				return st.Pool.Reused + st.Pool.FromAllocator, st.Reclaimer.Retired
			}
			check := func(name string, op func() bool, wantOK bool, wantTaken, wantRetired int64) {
				t.Helper()
				taken0, retired0 := counts()
				if got := op(); got != wantOK {
					t.Fatalf("%s returned %v, want %v", name, got, wantOK)
				}
				taken1, retired1 := counts()
				if taken, retired := taken1-taken0, retired1-retired0; taken != wantTaken || retired != wantRetired {
					t.Errorf("%s took %d records and retired %d, want %d and %d", name, taken, retired, wantTaken, wantRetired)
				}
			}
			check("Delete that hits", func() bool { return h.Delete(10) }, true, 0, 1)
			check("Delete that misses", func() bool { return h.Delete(10) }, false, 0, 0)
			check("replacing Upsert", func() bool { _, ok := h.Upsert(12, -12); return ok }, true, 1, 1)
			check("inserting Upsert", func() bool { _, ok := h.Upsert(11, 11); return ok }, false, 1, 0)
			check("first Insert of a present key", func() bool { return h.Insert(14, 0) }, false, 1, 0)
			check("Insert of a present key", func() bool { return h.Insert(14, 0) }, false, 0, 0)
			check("Insert from parked scratch", func() bool { return h.Insert(13, 13) }, true, 0, 0)
			check("Delete of the replacement", func() bool { return h.Delete(12) }, true, 0, 1)
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			if m.Len() != m.Count() {
				t.Fatalf("Len %d, Count %d", m.Len(), m.Count())
			}
		})
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// BenchmarkMapSequential is a quick single-thread sanity benchmark; the
// map's end-to-end workload is the benchmark's map_read_mostly
// (benchmark/README.md).
func BenchmarkMapSequential(b *testing.B) {
	for _, scheme := range allSchemes() {
		b.Run(scheme, func(b *testing.B) {
			mgr := recordmgr.MustBuild[hashmap.Node[int64]](recordmgr.Config{
				Scheme: scheme, Threads: 1, UsePool: true,
			})
			m := hashmap.New(mgr, 1)
			h := m.AcquireHandle()
			defer m.ReleaseHandle(h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i % 4096)
				h.Insert(k, k)
				h.Contains(k)
				h.Delete(k)
			}
		})
	}
}

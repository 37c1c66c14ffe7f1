package bst_test

import (
	"fmt"
	"math/rand"
	"repro/internal/reclaimtest"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/bst"
	"repro/internal/pool"
	"repro/internal/raceenabled"
	"repro/internal/reclaim/debra"
	"repro/internal/reclaim/debraplus"
	"repro/internal/reclaim/epoch"
	"repro/internal/reclaim/hp"
	"repro/internal/recordmgr"
)

// newTree builds a tree for the named scheme with a bump allocator and pool.
func newTree(t testing.TB, scheme string, threads int) *bst.Tree[int64] {
	t.Helper()
	mgr, err := recordmgr.Build[bst.Record[int64]](recordmgr.Config{
		Scheme:    scheme,
		Threads:   threads,
		Allocator: recordmgr.AllocBump,
		UsePool:   true,
	})
	if err != nil {
		t.Fatalf("building record manager: %v", err)
	}
	return bst.New(mgr)
}

// newAggressiveDebraPlusTree builds a DEBRA+ tree tuned so that epochs
// advance and neutralization triggers as often as possible, to exercise the
// recovery paths under test rather than only under long benchmarks.
func newAggressiveDebraPlusTree(t testing.TB, threads int) *bst.Tree[int64] {
	t.Helper()
	if raceenabled.Enabled {
		// Forced neutralization is not race-detector clean: a doomed
		// (signal-pending) operation may read records being re-initialised
		// after recycling, an artifact of simulating asynchronous signals
		// cooperatively (see the note in recordmgr.NewReclaimer).
		t.Skip("skipping forced-neutralization test under the race detector")
	}
	type rec = bst.Record[int64]
	alloc := arena.NewBump[rec](threads, 0)
	pl := pool.New[rec](threads, alloc)
	rcl := debraplus.New[rec](threads, pl,
		epoch.WithCheckThresh(1),
		epoch.WithIncrThresh(1),
		debraplus.WithSuspectThresholdBlocks(1),
		debraplus.WithScanThresholdBlocks(1),
	)
	return bst.New(core.NewRecordManager[rec](alloc, pl, rcl))
}

// newAggressiveHPTree builds an HP tree with a small retire threshold so
// scans occur frequently during tests.
func newAggressiveHPTree(t testing.TB, threads int) *bst.Tree[int64] {
	t.Helper()
	if raceenabled.Enabled {
		// A traversal that stepped through an already-marked internal
		// node could not prove its child still live, so with an aggressive
		// retire threshold the detector observed doomed reads of recycled
		// records. The search now restarts at a marked node instead
		// (Tree.search); running this stress under the detector again is
		// open (ROADMAP.md, item 3).
		t.Skip("skipping aggressive-HP stress under the race detector")
	}
	type rec = bst.Record[int64]
	alloc := arena.NewBump[rec](threads, 0)
	pl := pool.New[rec](threads, alloc)
	rcl := hp.New[rec](threads, pl, hp.WithRetireThreshold(64))
	return bst.New(core.NewRecordManager[rec](alloc, pl, rcl))
}

// newFastDebraTree builds a DEBRA tree with fast epochs.
func newFastDebraTree(t testing.TB, threads int) *bst.Tree[int64] {
	t.Helper()
	type rec = bst.Record[int64]
	alloc := arena.NewBump[rec](threads, 0)
	pl := pool.New[rec](threads, alloc)
	rcl := debra.New[rec](threads, pl, epoch.WithIncrThresh(4))
	return bst.New(core.NewRecordManager[rec](alloc, pl, rcl))
}

func allSchemes() []string { return recordmgr.Schemes() }

func TestEmptyTree(t *testing.T) {
	tree := newTree(t, recordmgr.SchemeDEBRA, 1)
	hs := reclaimtest.AcquireSlots(1, tree.AcquireHandle)
	if _, ok := hs[0].Get(42); ok {
		t.Fatal("empty tree claims to contain a key")
	}
	if hs[0].Delete(42) {
		t.Fatal("Delete on empty tree returned true")
	}
	if tree.Len() != 0 {
		t.Fatalf("Len=%d want 0", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicInsertGetDelete(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			tree := newTree(t, scheme, 1)
			hs := reclaimtest.AcquireSlots(1, tree.AcquireHandle)
			if !hs[0].Insert(10, 100) {
				t.Fatal("insert of fresh key returned false")
			}
			if hs[0].Insert(10, 200) {
				t.Fatal("insert of duplicate key returned true")
			}
			if v, ok := hs[0].Get(10); !ok || v != 100 {
				t.Fatalf("Get(10) = %d, %v", v, ok)
			}
			if !hs[0].Contains(10) {
				t.Fatal("Contains(10) = false")
			}
			if hs[0].Contains(11) {
				t.Fatal("Contains(11) = true")
			}
			if !hs[0].Delete(10) {
				t.Fatal("delete of present key returned false")
			}
			if hs[0].Delete(10) {
				t.Fatal("delete of absent key returned true")
			}
			if _, ok := hs[0].Get(10); ok {
				t.Fatal("Get after delete found the key")
			}
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSequentialAgainstModel(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			tree := newTree(t, scheme, 1)
			hs := reclaimtest.AcquireSlots(1, tree.AcquireHandle)
			model := map[int64]int64{}
			rng := rand.New(rand.NewSource(12345))
			const ops = 6000
			const keyRange = 300
			for i := 0; i < ops; i++ {
				k := rng.Int63n(keyRange)
				switch rng.Intn(3) {
				case 0:
					_, inModel := model[k]
					inserted := hs[0].Insert(k, k*10)
					if inserted == inModel {
						t.Fatalf("op %d: Insert(%d)=%v but model present=%v", i, k, inserted, inModel)
					}
					if !inModel {
						model[k] = k * 10
					}
				case 1:
					_, inModel := model[k]
					deleted := hs[0].Delete(k)
					if deleted != inModel {
						t.Fatalf("op %d: Delete(%d)=%v but model present=%v", i, k, deleted, inModel)
					}
					delete(model, k)
				default:
					v, ok := hs[0].Get(k)
					mv, inModel := model[k]
					if ok != inModel || (ok && v != mv) {
						t.Fatalf("op %d: Get(%d)=(%d,%v) model=(%d,%v)", i, k, v, ok, mv, inModel)
					}
				}
			}
			// Final state must match the model exactly.
			if tree.Len() != len(model) {
				t.Fatalf("final size %d, model %d", tree.Len(), len(model))
			}
			tree.ForEach(func(k, v int64) bool {
				mv, ok := model[k]
				if !ok || mv != v {
					t.Fatalf("tree contains (%d,%d), model has (%d,%v)", k, v, mv, ok)
				}
				return true
			})
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestQuickSequentialModel(t *testing.T) {
	// Property: for any random operation sequence, the tree behaves like a
	// map (sequential execution, DEBRA reclamation with fast epochs so that
	// records are actually recycled during the run).
	f := func(ops []uint16, seed int64) bool {
		tree := newFastDebraTree(t, 1)
		hs := reclaimtest.AcquireSlots(1, tree.AcquireHandle)
		model := map[int64]int64{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			k := int64(op % 128)
			switch rng.Intn(3) {
			case 0:
				_, inModel := model[k]
				if hs[0].Insert(k, k) == inModel {
					return false
				}
				model[k] = k
			case 1:
				_, inModel := model[k]
				if hs[0].Delete(k) != inModel {
					return false
				}
				delete(model, k)
			default:
				_, ok := hs[0].Get(k)
				_, inModel := model[k]
				if ok != inModel {
					return false
				}
			}
		}
		return tree.Len() == len(model) && tree.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAndBoundaryKeys(t *testing.T) {
	tree := newTree(t, recordmgr.SchemeDEBRA, 1)
	hs := reclaimtest.AcquireSlots(1, tree.AcquireHandle)
	keys := []int64{-1 << 40, -7, 0, 7, 1 << 40, bst.Infinity1 - 1}
	for _, k := range keys {
		if !hs[0].Insert(k, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	for _, k := range keys {
		if v, ok := hs[0].Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !hs[0].Delete(k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if tree.Len() != 0 {
		t.Fatalf("Len=%d want 0", tree.Len())
	}
}

func TestInsertRejectsSentinelKeys(t *testing.T) {
	tree := newTree(t, recordmgr.SchemeDEBRA, 1)
	hs := reclaimtest.AcquireSlots(1, tree.AcquireHandle)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for sentinel key")
		}
	}()
	hs[0].Insert(bst.Infinity1, 0)
}

func TestDeleteSentinelKeyIsNoop(t *testing.T) {
	tree := newTree(t, recordmgr.SchemeDEBRA, 1)
	hs := reclaimtest.AcquireSlots(1, tree.AcquireHandle)
	if hs[0].Delete(bst.Infinity2) {
		t.Fatal("deleting a sentinel key must fail")
	}
}

// concurrentStripes runs each thread on a disjoint key stripe and checks the
// exact final contents stripe by stripe, plus structural validation.
func concurrentStripes(t *testing.T, tree *bst.Tree[int64], threads, opsPerThread int) {
	t.Helper()
	const stripe = 1 << 20
	hs := reclaimtest.AcquireSlots(threads, tree.AcquireHandle)
	finals := make([]map[int64]int64, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid)*999 + 5))
			model := map[int64]int64{}
			base := int64(tid) * stripe
			for i := 0; i < opsPerThread; i++ {
				k := base + rng.Int63n(256)
				switch rng.Intn(3) {
				case 0:
					_, inModel := model[k]
					if hs[tid].Insert(k, k) == inModel {
						t.Errorf("tid %d: Insert(%d) inconsistent with thread-local model", tid, k)
						return
					}
					model[k] = k
				case 1:
					_, inModel := model[k]
					if hs[tid].Delete(k) != inModel {
						t.Errorf("tid %d: Delete(%d) inconsistent with thread-local model", tid, k)
						return
					}
					delete(model, k)
				default:
					_, ok := hs[tid].Get(k)
					if _, inModel := model[k]; ok != inModel {
						t.Errorf("tid %d: Get(%d) inconsistent with thread-local model", tid, k)
						return
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
	// Verify the final tree contents: the union of the per-thread models.
	want := map[int64]int64{}
	for _, m := range finals {
		for k, v := range m {
			want[k] = v
		}
	}
	got := map[int64]int64{}
	tree.ForEach(func(k, v int64) bool { got[k] = v; return true })
	if len(got) != len(want) {
		t.Fatalf("final tree has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("final tree missing or wrong value for key %d: got (%d,%v) want %d", k, gv, ok, v)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjointStripes(t *testing.T) {
	const threads = 6
	const ops = 4000
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			concurrentStripes(t, newTree(t, scheme, threads), threads, ops)
		})
	}
}

func TestConcurrentDisjointStripesAggressiveDebraPlus(t *testing.T) {
	const threads = 6
	tree := newAggressiveDebraPlusTree(t, threads)
	concurrentStripes(t, tree, threads, 4000)
	// The aggressive thresholds should have produced actual recoveries in
	// most runs; do not fail if not (it is timing dependent), but surface
	// the counters so regressions in the recovery path are visible.
	t.Logf("tree stats: %+v, reclaimer stats: %+v", tree.Stats(), tree.Manager().Stats().Reclaimer)
}

func TestConcurrentDisjointStripesAggressiveHP(t *testing.T) {
	const threads = 6
	tree := newAggressiveHPTree(t, threads)
	concurrentStripes(t, tree, threads, 3000)
	st := tree.Manager().Stats()
	if st.Reclaimer.Freed == 0 {
		t.Fatal("hazard pointer reclaimer never freed a record during the stress")
	}
}

// TestConcurrentSharedKeys hammers a small shared key range from all threads
// and checks structural integrity plus set semantics (each key present at
// most once) at the end.
func TestConcurrentSharedKeys(t *testing.T) {
	schemes := append(allSchemes(), "debra+aggressive", "hp-aggressive")
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			const threads = 8
			const ops = 3000
			var tree *bst.Tree[int64]
			switch scheme {
			case "debra+aggressive":
				tree = newAggressiveDebraPlusTree(t, threads)
			case "hp-aggressive":
				tree = newAggressiveHPTree(t, threads)
			default:
				tree = newTree(t, scheme, threads)
			}
			hs := reclaimtest.AcquireSlots(threads, tree.AcquireHandle)
			var wg sync.WaitGroup
			var inserted, deleted [64]int64
			var mu sync.Mutex
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid) + 99))
					localIns := make([]int64, 64)
					localDel := make([]int64, 64)
					for i := 0; i < ops; i++ {
						k := rng.Int63n(64)
						switch rng.Intn(3) {
						case 0:
							if hs[tid].Insert(k, k) {
								localIns[k]++
							}
						case 1:
							if hs[tid].Delete(k) {
								localDel[k]++
							}
						default:
							hs[tid].Get(k)
						}
					}
					mu.Lock()
					for k := 0; k < 64; k++ {
						inserted[k] += localIns[k]
						deleted[k] += localDel[k]
					}
					mu.Unlock()
				}(tid)
			}
			wg.Wait()
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
			// Set semantics: for every key, successful inserts minus
			// successful deletes must be 0 (absent) or 1 (present), and must
			// match the final contents.
			present := map[int64]bool{}
			tree.ForEach(func(k, v int64) bool {
				if present[k] {
					t.Fatalf("key %d appears twice in the final tree", k)
				}
				present[k] = true
				return true
			})
			for k := int64(0); k < 64; k++ {
				diff := inserted[k] - deleted[k]
				if diff != 0 && diff != 1 {
					t.Fatalf("key %d: %d successful inserts vs %d successful deletes", k, inserted[k], deleted[k])
				}
				if (diff == 1) != present[k] {
					t.Fatalf("key %d: balance %d but present=%v", k, diff, present[k])
				}
			}
		})
	}
}

// TestReclamationActuallyRecyclesRecords verifies the end-to-end pipeline:
// under a churn workload with DEBRA and a pool, the allocator hands out far
// fewer records than the number of insertions because retired records are
// recycled.
func TestReclamationActuallyRecyclesRecords(t *testing.T) {
	tree := newFastDebraTree(t, 1)
	hs := reclaimtest.AcquireSlots(1, tree.AcquireHandle)
	const churns = 20000
	for i := 0; i < churns; i++ {
		k := int64(i % 64)
		hs[0].Insert(k, k)
		hs[0].Delete(k)
	}
	st := tree.Manager().Stats()
	if st.Reclaimer.Freed == 0 {
		t.Fatal("no records were freed")
	}
	if st.Pool.Reused == 0 {
		t.Fatal("no records were reused from the pool")
	}
	// Each churn iteration allocates a handful of records; without reuse the
	// allocator would serve hundreds of thousands. With reclamation the
	// steady-state footprint is tiny.
	if st.Alloc.Allocated > 40000 {
		t.Fatalf("allocator served %d records; reclamation/pooling appears ineffective (freed=%d reused=%d)",
			st.Alloc.Allocated, st.Reclaimer.Freed, st.Pool.Reused)
	}
}

// TestNoReclamationLeaks is the Experiment-1 configuration: without a pool
// the allocator footprint grows with the number of updates.
func TestNoReclamationLeaks(t *testing.T) {
	mgr := recordmgr.MustBuild[bst.Record[int64]](recordmgr.Config{
		Scheme:  recordmgr.SchemeNone,
		Threads: 1,
		UsePool: false,
	})
	tree := bst.New(mgr)
	h := tree.AcquireHandle()
	defer tree.ReleaseHandle(h)
	const churns = 2000
	for i := 0; i < churns; i++ {
		k := int64(i % 16)
		h.Insert(k, k)
		h.Delete(k)
	}
	if got := mgr.Stats().Alloc.Allocated; got < churns {
		t.Fatalf("expected the leaky configuration to keep allocating (got %d allocations)", got)
	}
}

// TestReleaseHandsBackScratch is the slot-churn check of the parked scratch
// records: a goroutine acquires a slot, runs an Insert that finds its key
// present (parking the three records it pre-allocated) and a Delete that finds
// its key absent, and releases the slot. The release must hand the parked
// records to the pool, so the count of records that are neither in the pool
// nor awaiting reclamation stays at what the tree itself holds, the allocator
// stops being asked for fresh records after the first cycles, and Close
// leaves Retired == Freed.
func TestReleaseHandsBackScratch(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			tree := newTree(t, scheme, 2)
			mgr := tree.Manager()
			h := tree.AcquireHandle()
			for k := int64(0); k < 8; k++ {
				h.Insert(k, k)
			}
			tree.ReleaseHandle(h)
			// Records handed out and neither returned to the pool nor retired
			// and waiting: the tree's own, plus anything stranded.
			held := func() int64 {
				st := mgr.Stats()
				return st.Pool.Reused + st.Pool.FromAllocator - st.Pool.Freed - st.Unreclaimed
			}
			inTree, fresh := held(), int64(0)
			for cycle := 0; cycle < 32; cycle++ {
				h := tree.AcquireHandle()
				if h.Insert(3, 0) || h.Delete(100) {
					t.Fatal("a failing update succeeded")
				}
				tree.ReleaseHandle(h)
				if got := held(); got != inTree {
					t.Fatalf("cycle %d: %d records outside pool and limbo, the tree holds %d: scratch stranded", cycle, got, inTree)
				}
				switch allocated := mgr.Stats().Alloc.Allocated; {
				case cycle == 1:
					fresh = allocated
				case cycle > 1 && allocated != fresh:
					t.Fatalf("cycle %d: allocator served %d records, %d after the first cycles: parked records are not coming back", cycle, allocated, fresh)
				}
			}
			h = tree.AcquireHandle()
			for k := int64(0); k < 8; k++ {
				h.Delete(k)
			}
			tree.ReleaseHandle(h)
			mgr.Close()
			if st := mgr.Stats().Reclaimer; scheme != recordmgr.SchemeNone && st.Retired != st.Freed {
				t.Fatalf("after Close: retired %d, freed %d", st.Retired, st.Freed)
			}
		})
	}
}

// TestUpdateRecordCounts pins the per-update record arithmetic the paper's
// memory figures rest on: a successful Insert takes three records (new leaf,
// leaf copy, internal node) and retires the leaf it replaced; a successful
// Delete takes none and retires the spliced-out parent and the leaf; a
// failing update takes and retires nothing once the slot has parked its
// scratch. Descriptors are per slot and never pass through the manager.
func TestUpdateRecordCounts(t *testing.T) {
	tree := newTree(t, recordmgr.SchemeDEBRA, 1)
	mgr := tree.Manager()
	h := tree.AcquireHandle()
	defer tree.ReleaseHandle(h)
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
	check("successful Insert", func() bool { return h.Insert(11, 11) }, true, 3, 1)
	check("successful Delete", func() bool { return h.Delete(11) }, true, 0, 2)
	check("first Insert of a present key", func() bool { return h.Insert(10, 0) }, false, 3, 0)
	check("Insert of a present key", func() bool { return h.Insert(10, 0) }, false, 0, 0)
	check("Delete of an absent key", func() bool { return h.Delete(11) }, false, 0, 0)
	check("successful Insert from parked scratch", func() bool { return h.Insert(13, 13) }, true, 0, 1)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeStatsCounters(t *testing.T) {
	tree := newAggressiveDebraPlusTree(t, 2)
	hs := reclaimtest.AcquireSlots(2, tree.AcquireHandle)
	var wg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				k := int64(i % 32)
				hs[tid].Insert(k, k)
				hs[tid].Delete(k)
			}
		}(tid)
	}
	wg.Wait()
	st := tree.Stats()
	if st.Restarts < 0 || st.Helps < 0 || st.Recoveries < 0 {
		t.Fatalf("negative counters: %+v", st)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewTreeRequiresManager(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bst.New[int64](nil)
}

func TestManyKeysSorted(t *testing.T) {
	tree := newTree(t, recordmgr.SchemeDEBRA, 1)
	hs := reclaimtest.AcquireSlots(1, tree.AcquireHandle)
	const n = 5000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, k := range perm {
		if !hs[0].Insert(int64(k), int64(k)*3) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if tree.Len() != n {
		t.Fatalf("Len=%d want %d", tree.Len(), n)
	}
	last := int64(-1)
	tree.ForEach(func(k, v int64) bool {
		if k <= last {
			t.Fatalf("keys not ascending: %d after %d", k, last)
		}
		if v != k*3 {
			t.Fatalf("wrong value for %d: %d", k, v)
		}
		last = k
		return true
	})
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Delete every other key and re-validate.
	for k := 0; k < n; k += 2 {
		if !hs[0].Delete(int64(k)) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if tree.Len() != n/2 {
		t.Fatalf("Len=%d want %d", tree.Len(), n/2)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func ExampleTree() {
	mgr := recordmgr.MustBuild[bst.Record[string]](recordmgr.Config{
		Scheme:  recordmgr.SchemeDEBRA,
		Threads: 1,
		UsePool: true,
	})
	tree := bst.New(mgr)
	h := tree.AcquireHandle() // once per goroutine
	defer tree.ReleaseHandle(h)
	h.Insert(1, "one")
	h.Insert(2, "two")
	v, ok := h.Get(1)
	fmt.Println(v, ok)
	fmt.Println(h.Delete(3))
	// Output:
	// one true
	// false
}

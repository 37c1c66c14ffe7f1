package hashmap_test

import (
	"sync"
	"testing"

	"repro/internal/ds/hashmap"
	"repro/internal/recordmgr"
)

// newPartitioned builds a partitioned map whose partitions all use the named
// scheme with MaxThreads worker slots each.
func newPartitioned(t testing.TB, scheme string, partitions, threads, maxThreads int) *hashmap.Partitioned[int64] {
	t.Helper()
	return hashmap.NewPartitioned(partitions, func(int) *hashmap.Manager[int64] {
		return recordmgr.MustBuild[hashmap.Node[int64]](recordmgr.Config{
			Scheme:     scheme,
			Threads:    threads,
			MaxThreads: maxThreads,
			Allocator:  recordmgr.AllocBump,
			UsePool:    true,
		})
	}, maxThreads)
}

func TestPartitionedBasicOps(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			pm := newPartitioned(t, scheme, 4, 1, 2)
			h := pm.AcquireHandle()
			const n = 1000
			for k := int64(0); k < n; k++ {
				if !h.Insert(k, k*10) {
					t.Fatalf("Insert(%d) on a fresh map returned false", k)
				}
			}
			if h.Insert(5, 0) {
				t.Fatal("Insert of a present key returned true")
			}
			for k := int64(0); k < n; k++ {
				v, ok := h.Get(k)
				if !ok || v != k*10 {
					t.Fatalf("Get(%d) = %d,%v; want %d,true", k, v, ok, k*10)
				}
				if !h.Contains(k) {
					t.Fatalf("Contains(%d) = false", k)
				}
			}
			if got := pm.Len(); got != n {
				t.Fatalf("Len = %d, want %d", got, n)
			}
			if got := pm.Count(); got != n {
				t.Fatalf("Count = %d, want %d", got, n)
			}
			if prev, replaced := h.Upsert(7, 700); !replaced || prev != 70 {
				t.Fatalf("Upsert(7) = %d,%v; want 70,true", prev, replaced)
			}
			if v, _ := h.Get(7); v != 700 {
				t.Fatalf("Get(7) after Upsert = %d, want 700", v)
			}
			for k := int64(0); k < n; k += 2 {
				if !h.Delete(k) {
					t.Fatalf("Delete(%d) returned false", k)
				}
			}
			if h.Delete(0) {
				t.Fatal("Delete of an absent key returned true")
			}
			if got := pm.Len(); got != n/2 {
				t.Fatalf("Len after deletes = %d, want %d", got, n/2)
			}
			if err := pm.Validate(); err != nil {
				t.Fatal(err)
			}
			pm.ReleaseHandle(h)
			pm.Close()
			ms := pm.ManagerStats()
			if scheme != recordmgr.SchemeNone && ms.Reclaimer.Retired != ms.Reclaimer.Freed {
				t.Fatalf("after Close: Retired=%d Freed=%d", ms.Reclaimer.Retired, ms.Reclaimer.Freed)
			}
		})
	}
}

// TestPartitionedRoutingCoversPartitions checks the high-bit router actually
// spreads a dense key range over every partition, and that PartitionFor
// agrees with where the keys land.
func TestPartitionedRoutingCoversPartitions(t *testing.T) {
	const parts = 8
	pm := newPartitioned(t, recordmgr.SchemeDEBRA, parts, 1, 1)
	h := pm.AcquireHandle()
	const n = int64(4096)
	for k := int64(0); k < n; k++ {
		h.Insert(k, k)
	}
	pm.ReleaseHandle(h)
	total := 0
	for p := 0; p < parts; p++ {
		got := pm.Partition(p).Len()
		total += got
		if got == 0 {
			t.Fatalf("partition %d received no keys from a dense %d-key range", p, n)
		}
		// A starved router (e.g. low-bit routing aliasing the bucket index)
		// shows up as wildly unbalanced partitions; allow generous slack.
		if got < int(n)/parts/4 || got > int(n)/parts*4 {
			t.Fatalf("partition %d holds %d of %d keys; expected ~%d", p, got, n, int(n)/parts)
		}
	}
	if total != int(n) {
		t.Fatalf("partitions hold %d keys in total, want %d", total, n)
	}
	for k := int64(0); k < n; k++ {
		p := pm.PartitionFor(k)
		if p < 0 || p >= parts {
			t.Fatalf("PartitionFor(%d) = %d, out of range", k, p)
		}
	}
	pm.Close()
}

// TestPartitionedHandleReuse exercises the burst contract: one handle,
// acquired and released repeatedly, operating between acquisitions.
func TestPartitionedHandleReuse(t *testing.T) {
	pm := newPartitioned(t, recordmgr.SchemeEBR, 2, 1, 2)
	h := pm.NewHandle()
	if h.Bound() {
		t.Fatal("fresh handle claims to be bound")
	}
	for burst := 0; burst < 5; burst++ {
		h.Acquire()
		if !h.Bound() {
			t.Fatal("Acquire left the handle unbound")
		}
		base := int64(burst * 100)
		for k := base; k < base+50; k++ {
			h.Insert(k, k)
		}
		for k := base; k < base+50; k += 2 {
			h.Delete(k)
		}
		h.Release()
		if h.Bound() {
			t.Fatal("Release left the handle bound")
		}
	}
	pm.Close()
	ms := pm.ManagerStats()
	if ms.Reclaimer.Retired != ms.Reclaimer.Freed {
		t.Fatalf("after Close: Retired=%d Freed=%d", ms.Reclaimer.Retired, ms.Reclaimer.Freed)
	}
}

// TestPartitionedTryAcquireExhaustion fills every partition slot and checks
// TryAcquire fails cleanly — holding nothing — then succeeds after a release.
func TestPartitionedTryAcquireExhaustion(t *testing.T) {
	pm := newPartitioned(t, recordmgr.SchemeQSBR, 2, 1, 2)
	a := pm.AcquireHandle()
	b := pm.AcquireHandle()
	c := pm.NewHandle()
	if c.TryAcquire() {
		t.Fatal("TryAcquire succeeded with every slot taken")
	}
	if c.Bound() {
		t.Fatal("failed TryAcquire left the handle bound")
	}
	pm.ReleaseHandle(b)
	if !c.TryAcquire() {
		t.Fatal("TryAcquire failed with a vacant slot")
	}
	c.Release()
	a.Release()
	pm.Close()
}

// TestPartitionedConcurrent churns goroutines through acquire/operate/release
// cycles across partitions (run under -race to check the handoff).
func TestPartitionedConcurrent(t *testing.T) {
	const (
		parts   = 4
		workers = 4
		bursts  = 20
		opsPer  = 200
	)
	for _, scheme := range []string{recordmgr.SchemeEBR, recordmgr.SchemeDEBRA, recordmgr.SchemeHP} {
		t.Run(scheme, func(t *testing.T) {
			pm := newPartitioned(t, scheme, parts, 1, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := pm.NewHandle()
					for burst := 0; burst < bursts; burst++ {
						h.Acquire()
						base := int64(w*1_000_000 + burst*opsPer)
						for k := base; k < base+opsPer; k++ {
							h.Insert(k, k)
							if k%3 == 0 {
								h.Delete(k)
							} else {
								h.Get(k)
							}
						}
						h.Release()
					}
				}(w)
			}
			wg.Wait()
			if err := pm.Validate(); err != nil {
				t.Fatal(err)
			}
			pm.Close()
			ms := pm.ManagerStats()
			if ms.Reclaimer.Retired != ms.Reclaimer.Freed {
				t.Fatalf("after Close: Retired=%d Freed=%d", ms.Reclaimer.Retired, ms.Reclaimer.Freed)
			}
			if ms.Unreclaimed != 0 {
				t.Fatalf("after Close: Unreclaimed=%d", ms.Unreclaimed)
			}
		})
	}
}

// TestReleaseHandsBackScratch is the slot-churn check of the parked scratch
// records, at the level kvservice uses the map (it releases its slots every
// Burst requests): acquire every partition's slot, run an Insert that finds
// its key present, a Delete that finds its key absent and an Upsert of an
// absent key (which leaves its marker unused), release. The release must
// hand each slot's parked record to its pool: every record handed out is
// then pooled again, awaiting reclamation, or part of a map — none stranded
// — the allocators are asked for fresh records only as the maps grow, and
// Close leaves Retired == Freed.
func TestReleaseHandsBackScratch(t *testing.T) {
	const partitions = 2
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			pm := newPartitioned(t, scheme, partitions, 1, 2)
			h := pm.NewHandle()
			h.Acquire()
			for k := int64(0); k < 16; k++ {
				h.Insert(k, k)
			}
			h.Release()
			// Records the maps are made of: the live nodes. Bucket heads live
			// in the directory and are nobody's allocation.
			inMaps := func() int64 { return int64(pm.Count()) }
			var fresh int64
			for cycle := 0; cycle < 32; cycle++ {
				h.Acquire()
				key := int64(100 + cycle)
				if h.Insert(3, 0) || h.Delete(key) {
					t.Fatal("a failing update succeeded")
				}
				if _, existed := h.Upsert(key, key); existed {
					t.Fatalf("Upsert found absent key %d", key)
				}
				h.Release()
				st := pm.ManagerStats()
				if out := st.Pool.Reused + st.Pool.FromAllocator - st.Pool.Freed - st.Unreclaimed; out != inMaps() {
					t.Fatalf("cycle %d: %d records outside pools and limbo, the maps hold %d: scratch stranded", cycle, out, inMaps())
				}
				// Each partition's pool settles at the two records one Upsert
				// takes, once the keys have routed to it a few times.
				const settled = 8
				switch beyond := st.Alloc.Allocated - inMaps(); {
				case cycle == settled:
					fresh = beyond
				case cycle > settled && beyond != fresh:
					t.Fatalf("cycle %d: allocators served %d records beyond the maps' own, %d after the first cycles: parked records are not coming back", cycle, beyond, fresh)
				}
			}
			if err := pm.Validate(); err != nil {
				t.Fatal(err)
			}
			h.Acquire()
			for k := int64(0); k < 16; k++ {
				h.Delete(k)
			}
			h.Release()
			pm.Close()
			if st := pm.ManagerStats().Reclaimer; scheme != recordmgr.SchemeNone && st.Retired != st.Freed {
				t.Fatalf("after Close: retired %d, freed %d", st.Retired, st.Freed)
			}
		})
	}
}

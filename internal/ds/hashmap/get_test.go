package hashmap

import (
	"testing"

	"repro/internal/recordmgr"
)

// oneBucketMap builds a map that keeps every key in bucket 0's chain, so a
// test can pick list neighbours.
func oneBucketMap(t *testing.T, scheme string, threads int) *Map[int64] {
	t.Helper()
	mgr, err := recordmgr.Build[Node[int64]](recordmgr.Config{
		Scheme: scheme, Threads: threads, Allocator: recordmgr.AllocBump, UsePool: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(mgr, threads, WithInitialBuckets(1), WithMaxBuckets(1))
	for k := int64(1); k <= 8; k++ {
		if !m.Insert(0, k, k*10) {
			t.Fatalf("insert %d failed", k)
		}
	}
	return m
}

// chain returns the keys of the map in list (split) order.
func chain(m *Map[int64]) []int64 {
	var keys []int64
	m.ForEach(func(k, _ int64) bool { keys = append(keys, k); return true })
	return keys
}

// linked reports whether the regular node holding key is still on the list.
func linked(m *Map[int64], key int64) bool {
	for n := m.head; n != nil; n = n.next.Load() {
		if n.kind() == kindRegular && n.key == key {
			return true
		}
	}
	return false
}

// TestGetOnMarkedNode: a key whose node is marked but not yet unlinked reads
// absent. Under the epoch schemes Get is the wait-free walk — it leaves the
// pair where it is and never unlinks; under hazard pointers Get still runs
// the helping find, which unlinks the pair on its way.
func TestGetOnMarkedNode(t *testing.T) {
	for _, scheme := range recordmgr.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			m := oneBucketMap(t, scheme, 1)
			victim := chain(m)[3]
			// Mark the victim the way deleteBody does, without its unlink.
			var n *Node[int64]
			for n = m.head; n.key != victim || n.kind() != kindRegular; n = n.next.Load() {
			}
			marker := m.Handle(0).rm.Allocate()
			initMarker(marker, n.next.Load())
			n.next.Store(marker)
			m.count.Add(-1)

			before := m.Stats()
			if v, ok := m.Get(0, victim); ok {
				t.Fatalf("Get of a marked key = %d, true", v)
			}
			for _, k := range chain(m) {
				if v, ok := m.Get(0, k); !ok || v != k*10 {
					t.Fatalf("Get(%d) = %d, %v beside a marked node", k, v, ok)
				}
			}
			after := m.Stats()
			if m.perRecord {
				if after.Unlinks != before.Unlinks+1 || linked(m, victim) {
					t.Fatalf("hp: Get must go through find and unlink the pair (unlinks %d -> %d, linked %v)",
						before.Unlinks, after.Unlinks, linked(m, victim))
				}
			} else if after != before || !linked(m, victim) {
				t.Fatalf("epoch Get touched the list: stats %+v -> %+v, victim linked %v", before, after, linked(m, victim))
			}
			// The next update's find cleans up, and the structure is whole.
			if m.Delete(0, victim) {
				t.Fatal("Delete of a marked key succeeded")
			}
			if linked(m, victim) {
				t.Fatal("marked pair still linked after a mutating traversal")
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGetCrossesUnlinkedPairs: two neighbours are deleted — marked, unlinked
// and retired — while a Get stands on the first of them. The walk continues
// through node, marker, node, marker and reaches the live successor, and the
// only unlinks counted are the deletes' own.
func TestGetCrossesUnlinkedPairs(t *testing.T) {
	for _, scheme := range []string{recordmgr.SchemeEBR, recordmgr.SchemeQSBR, recordmgr.SchemeDEBRA, recordmgr.SchemeDEBRAPlus} {
		t.Run(scheme, func(t *testing.T) {
			m := oneBucketMap(t, scheme, 2)
			keys := chain(m)
			a, b, target := keys[2], keys[3], keys[4]
			fired := false
			m.SetVisitHook(func(tid int, n *Node[int64]) {
				if tid != 0 || fired || n.kind() != kindRegular || n.key != a {
					return
				}
				fired = true
				if !m.Delete(1, a) || !m.Delete(1, b) {
					t.Error("concurrent deletes failed")
				}
				if linked(m, a) || linked(m, b) {
					t.Error("deleted pairs still linked")
				}
			})
			before := m.Stats().Unlinks
			if v, ok := m.Get(0, target); !ok || v != target*10 {
				t.Fatalf("Get(%d) across two unlinked pairs = %d, %v", target, v, ok)
			}
			if !fired {
				t.Fatal("the walk never visited the first victim")
			}
			if got := m.Stats().Unlinks - before; got != 2 {
				t.Fatalf("unlinks during the Get = %d, want the two deletes' own", got)
			}
			if m.Contains(0, a) || m.Contains(0, b) {
				t.Fatal("deleted keys still readable")
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPoisonSharesWordWithKind: the reclaimtest Poisonable contract on the
// folded meta word — the flag reports a double free, clears, and never
// disturbs the kind stored beside it.
func TestPoisonSharesWordWithKind(t *testing.T) {
	var n Node[uint32]
	initMarker(&n, nil)
	if n.IsPoisoned() {
		t.Fatal("fresh node reads poisoned")
	}
	if n.Poison() {
		t.Fatal("first Poison reported a double free")
	}
	if !n.IsPoisoned() || !n.IsMarker() {
		t.Fatalf("after Poison: poisoned=%v marker=%v", n.IsPoisoned(), n.IsMarker())
	}
	if !n.Poison() {
		t.Fatal("second Poison did not report the double free")
	}
	n.Unpoison()
	if n.IsPoisoned() || !n.IsMarker() {
		t.Fatalf("after Unpoison: poisoned=%v marker=%v", n.IsPoisoned(), n.IsMarker())
	}
}

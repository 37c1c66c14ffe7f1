package hashmap

import (
	"testing"

	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

// oneBucketMap builds a map that keeps every key in bucket 0's chain, so a
// test can pick list neighbours, and returns it with a handle per slot.
func oneBucketMap(t *testing.T, scheme string, threads int) (*Map[int64], []*Handle[int64]) {
	t.Helper()
	m := buildMap(t, scheme, threads, WithInitialBuckets(1), WithMaxBuckets(1))
	hs := reclaimtest.AcquireSlots(threads, m.AcquireHandle)
	for k := int64(1); k <= 8; k++ {
		if !hs[0].Insert(k, k*10) {
			t.Fatalf("insert %d failed", k)
		}
	}
	return m, hs
}

// chain returns the keys of the map in list (split) order.
func chain(m *Map[int64]) []int64 {
	var keys []int64
	m.ForEach(func(k, _ int64) bool { keys = append(keys, k); return true })
	return keys
}

// linked reports whether the regular node holding key is still on the list.
func linked(m *Map[int64], key int64) bool {
	return nodeOf(m, key) != nil
}

// nodeOf returns the regular node holding key if it is on the list.
func nodeOf(m *Map[int64], key int64) *Node[int64] {
	for n := &m.head; n != nil; n = n.next.Load() {
		if n.kind() == kindRegular && n.Key() == key {
			return n
		}
	}
	return nil
}

// markOnly marks key's node the way deleteBody does and stops there, as a
// deleter that lost its unlink CAS and has not yet made its find pass would.
func markOnly(m *Map[int64], h *Handle[int64], key int64) {
	n := nodeOf(m, key)
	marker := h.rm.Allocate()
	initMarker(marker, n.next.Load())
	n.next.Store(marker)
	m.count.Add(-1)
}

// replaceOnly marks key's node with a replacement holding v the way
// upsertBody does and stops there, as an Upsert that lost its unlink CAS and
// has not yet made its find pass would. It returns the old node and its
// replacement.
func replaceOnly(m *Map[int64], h *Handle[int64], key, v int64) (old, repl *Node[int64]) {
	old = nodeOf(m, key)
	repl = h.rm.Allocate()
	initRegular(repl, v, old.sokey, old.next.Load())
	old.next.Store(repl)
	return old, repl
}

// TestGetOnReplacedNode: the first node of a key is its binding. While a
// replacement is pending — old -> new both linked — the epoch schemes' Get
// stops at the old node, returns the old value and leaves the pair in place;
// under hazard pointers Get runs the helping find, which unlinks the old node
// and returns the new value. Validate rejects the pair, and accepts the list
// once a mutating traversal has passed.
func TestGetOnReplacedNode(t *testing.T) {
	for _, scheme := range recordmgr.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			m, hs := oneBucketMap(t, scheme, 1)
			victim := chain(m)[3]
			old, repl := replaceOnly(m, hs[0], victim, -1)
			if err := m.Validate(); err == nil {
				t.Fatal("Validate accepted a key with two nodes on the list")
			}

			before := m.Stats()
			v, ok := hs[0].Get(victim)
			after := m.Stats()
			if m.perRecord {
				if !ok || v != -1 || after.Unlinks != before.Unlinks+1 || nodeOf(m, victim) != repl {
					t.Fatalf("hp: Get of a replaced key = %d, %v; unlinks %d -> %d, old still linked %v",
						v, ok, before.Unlinks, after.Unlinks, nodeOf(m, victim) == old)
				}
			} else if !ok || v != victim*10 || after != before || nodeOf(m, victim) != old || old.next.Load() != repl {
				t.Fatalf("epoch Get of a replaced key = %d, %v; stats %+v -> %+v, pair in place %v",
					v, ok, before, after, nodeOf(m, victim) == old && old.next.Load() == repl)
			}
			for _, k := range chain(m) {
				if k == victim {
					continue
				}
				if v, ok := hs[0].Get(k); !ok || v != k*10 {
					t.Fatalf("Get(%d) = %d, %v beside a replaced node", k, v, ok)
				}
			}
			// The next update's find cleans up, and the structure is whole.
			if hs[0].Insert(victim, 7) {
				t.Fatal("Insert of a replaced key succeeded")
			}
			if nodeOf(m, victim) != repl {
				t.Fatal("old node still linked after a mutating traversal")
			}
			if v, ok := hs[0].Get(victim); !ok || v != -1 {
				t.Fatalf("Get(%d) after the cleanup = %d, %v", victim, v, ok)
			}
			if m.Len() != m.Count() {
				t.Fatalf("Len %d, Count %d", m.Len(), m.Count())
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGetOnMarkedNode: linked means present. A key whose node is marked but
// still on the list — its Delete has not returned — reads present under the
// epoch schemes, whose Get is the wait-free walk: it stops at the node, looks
// no further and leaves the pair where it is. Under hazard pointers Get runs
// the helping find, which unlinks the pair on its way and so reads absent.
// Either way the next mutating traversal leaves the list whole.
func TestGetOnMarkedNode(t *testing.T) {
	for _, scheme := range recordmgr.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			m, hs := oneBucketMap(t, scheme, 1)
			victim := chain(m)[3]
			markOnly(m, hs[0], victim)

			before := m.Stats()
			v, ok := hs[0].Get(victim)
			after := m.Stats()
			if m.perRecord {
				if ok || after.Unlinks != before.Unlinks+1 || linked(m, victim) {
					t.Fatalf("hp: Get must go through find and unlink the pair (found %v, unlinks %d -> %d, linked %v)",
						ok, before.Unlinks, after.Unlinks, linked(m, victim))
				}
			} else if !ok || v != victim*10 || after != before || !linked(m, victim) {
				t.Fatalf("epoch Get of a marked, linked key = %d, %v; stats %+v -> %+v, linked %v",
					v, ok, before, after, linked(m, victim))
			}
			for _, k := range chain(m) {
				if v, ok := hs[0].Get(k); !ok || v != k*10 {
					t.Fatalf("Get(%d) = %d, %v beside a marked node", k, v, ok)
				}
			}
			// The next update's find cleans up, and the structure is whole.
			if hs[0].Delete(victim) {
				t.Fatal("Delete of a marked key succeeded")
			}
			if linked(m, victim) {
				t.Fatal("marked pair still linked after a mutating traversal")
			}
			if _, ok := hs[0].Get(victim); ok {
				t.Fatal("unlinked key still readable")
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
	for _, scheme := range epochSchemes {
		t.Run(scheme, func(t *testing.T) {
			m, hs := oneBucketMap(t, scheme, 2)
			keys := chain(m)
			a, b, target := keys[2], keys[3], keys[4]
			fired := false
			m.SetVisitHook(func(tid int, n *Node[int64]) {
				if tid != 0 || fired || n.kind() != kindRegular || n.Key() != a {
					return
				}
				fired = true
				if !hs[1].Delete(a) || !hs[1].Delete(b) {
					t.Error("concurrent deletes failed")
				}
				if linked(m, a) || linked(m, b) {
					t.Error("deleted pairs still linked")
				}
			})
			before := m.Stats().Unlinks
			if v, ok := hs[0].Get(target); !ok || v != target*10 {
				t.Fatalf("Get(%d) across two unlinked pairs = %d, %v", target, v, ok)
			}
			if !fired {
				t.Fatal("the walk never visited the first victim")
			}
			if got := m.Stats().Unlinks - before; got != 2 {
				t.Fatalf("unlinks during the Get = %d, want the two deletes' own", got)
			}
			if hs[0].Contains(a) || hs[0].Contains(b) {
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

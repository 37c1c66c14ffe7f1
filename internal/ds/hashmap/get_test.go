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
	for w := m.head.Load(); !atEnd(w); w = m.after(w) {
		if n := m.record(w); n != nil && n.Key() == key {
			return n
		}
	}
	return nil
}

// markOnly marks key's node the way deleteBody does and stops there, as a
// deleter that lost its unlink CAS and has not yet made its find pass would.
func markOnly(m *Map[int64], key int64) {
	n := nodeOf(m, key)
	n.next.Store(n.next.Load() | markBit)
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
	old.next.Store(recLink(repl.index()) | markBit)
	return old, repl
}

// TestGetOnReplacedNode: the first node of a key is its binding. While a
// replacement is pending — old -> new both linked — the epoch schemes' Get
// stops at the old node, returns the old value and leaves the pair in place;
// under hazard pointers Get runs the helping find, which unlinks the old node
// and returns the new value. Validate rejects the pair, and accepts the list
// once a mutating traversal has passed.
func TestGetOnReplacedNode(t *testing.T) {
	for _, scheme := range allSchemes() {
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
			} else if !ok || v != victim*10 || after != before || nodeOf(m, victim) != old || m.record(old.next.Load()) != repl {
				t.Fatalf("epoch Get of a replaced key = %d, %v; stats %+v -> %+v, pair in place %v",
					v, ok, before, after, nodeOf(m, victim) == old && m.record(old.next.Load()) == repl)
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
// no further and leaves the node where it is. Under hazard pointers Get runs
// the helping find, which unlinks the node on its way and so reads absent.
// Either way the next mutating traversal leaves the list whole.
func TestGetOnMarkedNode(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m, hs := oneBucketMap(t, scheme, 1)
			victim := chain(m)[3]
			markOnly(m, victim)

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
				t.Fatal("marked node still linked after a mutating traversal")
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

// TestGetCrossesUnlinkedPairs: a pair of neighbours is deleted — each marked,
// unlinked and retired — while a Get stands on the first of them. The walk
// follows the two frozen links and reaches the live successor, and the only
// unlinks counted are the deletes' own.
func TestGetCrossesUnlinkedPairs(t *testing.T) {
	for _, scheme := range epochSchemes {
		t.Run(scheme, func(t *testing.T) {
			m, hs := oneBucketMap(t, scheme, 2)
			keys := chain(m)
			a, b, target := keys[2], keys[3], keys[4]
			fired := false
			m.SetVisitHook(func(tid int, n *Node[int64]) {
				if tid != 0 || fired || n.Key() != a {
					return
				}
				fired = true
				if !hs[1].Delete(a) || !hs[1].Delete(b) {
					t.Error("concurrent deletes failed")
				}
				if linked(m, a) || linked(m, b) {
					t.Error("deleted neighbours still linked")
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

// TestPoisonSharesWordWithIndex: the reclaimtest Poisonable contract on the
// folded meta word — the flag reports a double free, clears, and never
// disturbs the index stored beside it.
func TestPoisonSharesWordWithIndex(t *testing.T) {
	var n Node[uint32]
	n.SetIndex(maxIndex)
	if n.IsPoisoned() || n.index() != maxIndex {
		t.Fatalf("fresh node: poisoned=%v index %#x", n.IsPoisoned(), n.index())
	}
	if n.Poison() {
		t.Fatal("first Poison reported a double free")
	}
	if !n.IsPoisoned() || n.index() != maxIndex {
		t.Fatalf("after Poison: poisoned=%v index %#x", n.IsPoisoned(), n.index())
	}
	if !n.Poison() {
		t.Fatal("second Poison did not report the double free")
	}
	n.Unpoison()
	if n.IsPoisoned() || n.index() != maxIndex {
		t.Fatalf("after Unpoison: poisoned=%v index %#x", n.IsPoisoned(), n.index())
	}
}

// TestMarkedWordIsInert: once a Delete has marked its victim n, n's link is
// frozen. A link CAS that expects n's unmarked successor — the CAS an Insert
// behind n, a second Delete's mark, or a replacing Upsert's mark would make —
// fails, and only the mark in the word makes it fail: the same CAS expecting
// the marked word goes through. The Delete is caught between its mark and
// its unlink: slot 1 wedges a key in front of n when slot 0's find first
// reaches n, so slot 0's unlink CAS loses, and the checks run when slot 0's
// postamble find reaches n again, marked and still linked.
func TestMarkedWordIsInert(t *testing.T) {
	for _, scheme := range []string{recordmgr.SchemeDEBRA, recordmgr.SchemeHP} {
		t.Run(scheme, func(t *testing.T) {
			m, hs := oneBucketMap(t, scheme, 2)
			keys := chain(m)
			pred, n := nodeOf(m, keys[2]), nodeOf(m, keys[3])
			succ := n.next.Load()
			wedge := int64(100)
			for ; ; wedge++ {
				so := regularSoKey(hashOf(wedge))
				if pred.sokey < so && so < n.sokey {
					break
				}
			}
			other := hs[1].scratch()
			seen := 0
			m.SetVisitHook(func(tid int, v *Node[int64]) {
				if tid != 0 || v != n {
					return
				}
				switch seen++; seen {
				case 1:
					if !hs[1].Insert(wedge, wedge*10) {
						t.Errorf("Insert(%d) in front of the victim failed", wedge)
					}
				case 2:
					marked := succ | markBit
					if w := n.next.Load(); w != marked {
						t.Errorf("marked victim's link = %#x, want its successor %#x with the mark", w, succ)
						return
					}
					for _, to := range []uint64{recLink(other.index()), succ | markBit, recLink(other.index()) | markBit} {
						if n.next.CompareAndSwap(succ, to) {
							t.Errorf("a CAS expecting the unmarked successor %#x moved the marked link to %#x", succ, to)
						}
					}
					if !n.next.CompareAndSwap(marked, marked) || n.next.Load() != marked {
						t.Error("the same CAS expecting the marked word failed: something besides the mark is blocking it")
					}
				}
			})
			if !hs[0].Delete(keys[3]) {
				t.Fatal("Delete failed")
			}
			if seen < 2 {
				t.Fatalf("slot 0 reached the victim %d times, want the mark caught between two finds", seen)
			}
			hs[1].park(other)
			if linked(m, keys[3]) {
				t.Fatal("Delete returned with its victim still linked")
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

package hashmap

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

// epochSchemes are the schemes whose Get is the wait-free walk.
var epochSchemes = []string{recordmgr.SchemeEBR, recordmgr.SchemeQSBR, recordmgr.SchemeDEBRA}

// allSchemes are the schemes New accepts: every scheme but debra+.
func allSchemes() []string {
	var out []string
	for _, s := range recordmgr.Schemes() {
		if s != recordmgr.SchemeDEBRAPlus {
			out = append(out, s)
		}
	}
	return out
}

// The scheme lists, for the package's external tests.
var (
	AllSchemes   = allSchemes
	EpochSchemes = epochSchemes
)

func buildMap(t *testing.T, scheme string, threads int, opts ...Option) *Map[int64] {
	t.Helper()
	mgr, err := recordmgr.Build[Node[int64]](recordmgr.Config{
		Scheme: scheme, Threads: threads, Allocator: recordmgr.AllocBump, UsePool: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(mgr, threads, opts...)
}

// stateOf reads the claim state of head word d: 0 (unclaimed),
// claimedBy(slot) or headLinked.
func stateOf(d *atomic.Uint64) uint64 { return d.Load() & headState }

// keysOfBucket returns the first n keys >= from that fall in bucket b of a
// table of the given size.
func keysOfBucket(b, size uint64, from int64, n int) []int64 {
	var keys []int64
	for k := from; len(keys) < n; k++ {
		if hashOf(k)&(size-1) == b {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestClaimParkedClaimer: slot 2 claims bucket 2's head and never comes back.
// The other slots still insert, read and delete keys of that bucket (walking
// from its linked ancestor) and of its child buckets (which splice behind the
// same ancestor) while the table grows around it, Validate passes throughout,
// and when slot 2 finally runs an operation it finds its claim and finishes
// the splice.
func TestClaimParkedClaimer(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m := buildMap(t, scheme, 3, WithInitialBuckets(4), WithMaxLoad(1), WithMaxBuckets(16))
			hs := reclaimtest.AcquireSlots(3, m.AcquireHandle)
			parked := m.headOf(2)
			if s := stateOf(parked); s != 0 {
				t.Fatalf("untouched head has state %#x", s)
			}
			parked.Store(claimedBy(2))

			// Keys whose low hash bits are 10: bucket 2 of 4, and its children
			// 2|6 of 8 and 2|6|10|14 of 16.
			keys := keysOfBucket(2, 4, 0, 48)
			for i, k := range keys {
				if !hs[i%2].Insert(k, k*10) {
					t.Fatalf("Insert(%d) behind a parked claimer failed", k)
				}
			}
			if m.Buckets() != 16 {
				t.Fatalf("table has %d buckets, want it grown to 16", m.Buckets())
			}
			for i, k := range keys {
				if v, ok := hs[i%2].Get(k); !ok || v != k*10 {
					t.Fatalf("Get(%d) = %d, %v behind a parked claimer", k, v, ok)
				}
			}
			for i, k := range keys {
				if i%3 == 0 && !hs[i%2].Delete(k) {
					t.Fatalf("Delete(%d) behind a parked claimer failed", k)
				}
			}
			if s := stateOf(parked); s != claimedBy(2) {
				t.Fatalf("another slot touched the claim: state %#x", s)
			}
			children := 0
			for _, b := range []uint64{6, 10, 14} {
				if stateOf(m.headOf(b)) == headLinked {
					children++
				}
			}
			if children == 0 {
				t.Fatal("no child bucket of the parked one was linked")
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("with the claimer parked: %v", err)
			}

			// The claimer comes back, with a key still in bucket 2 of 16.
			before := m.Stats().Dummies
			own := keysOfBucket(2, 16, 0, 1)[0]
			hs[2].Get(own)
			if s := stateOf(parked); s != headLinked || m.Stats().Dummies != before+1 {
				t.Fatalf("claimer did not finish its splice: state %#x, dummies %d -> %d",
					s, before, m.Stats().Dummies)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("after the claimer resumed: %v", err)
			}
			for i, k := range keys {
				if _, ok := hs[2].Get(k); ok != (i%3 != 0) {
					t.Fatalf("Get(%d) present=%v after the splice", k, ok)
				}
			}
			if m.Len() != m.Count() {
				t.Fatalf("Len %d, Count %d", m.Len(), m.Count())
			}
		})
	}
}

// claimRestart drives slot 0 into bucket 1's first touch and has interrupt
// break that attempt from inside the claimer's find, once, while the head
// says "linking, slot 0". The operation must restart, find its own claim and
// finish the splice rather than walk away from it.
func claimRestart(t *testing.T, m *Map[int64], hs []*Handle[int64], interrupt func(visited *Node[int64])) {
	t.Helper()
	// Bucket 0's keys sort before bucket 1's head, so the claimer's find from
	// head 0 walks over them.
	for _, k := range keysOfBucket(0, 2, 0, 6) {
		hs[0].Insert(k, k)
	}
	head := m.headOf(1)
	if stateOf(head) != 0 {
		t.Fatal("bucket 1 was touched by the prefill")
	}
	fired := false
	m.SetVisitHook(func(tid int, n *Node[int64]) {
		if tid != 0 || fired {
			return
		}
		if s := stateOf(head); s != claimedBy(0) {
			t.Errorf("claimer walks with head state %#x, want its claim", s)
		}
		fired = true
		interrupt(n)
	})
	before := m.Stats()
	key := keysOfBucket(1, 2, 0, 1)[0]
	if !hs[0].Insert(key, key) {
		t.Fatalf("Insert(%d) failed", key)
	}
	after := m.Stats()
	if !fired {
		t.Fatal("the claimer's find never visited a node")
	}
	if after.Restarts == before.Restarts {
		t.Fatal("the interrupted attempt did not restart")
	}
	if s := stateOf(head); s != headLinked || after.Dummies != before.Dummies+1 {
		t.Fatalf("restarted claimer abandoned its claim: state %#x, dummies %d -> %d",
			s, before.Dummies, after.Dummies)
	}
	if v, ok := hs[0].Get(key); !ok || v != key {
		t.Fatalf("Get(%d) = %d, %v", key, v, ok)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestClaimRestartHP: a hazard-pointer validation fails under the claimer
// (the node it stands on is deleted by another slot).
func TestClaimRestartHP(t *testing.T) {
	m := buildMap(t, recordmgr.SchemeHP, 2, WithInitialBuckets(2), WithMaxBuckets(2))
	hs := reclaimtest.AcquireSlots(2, m.AcquireHandle)
	claimRestart(t, m, hs, func(visited *Node[int64]) {
		if !hs[1].Delete(visited.Key()) {
			t.Errorf("Delete(%d) under the claimer failed", visited.Key())
		}
	})
}

// spliceOnly claims bucket b's head for slot tid and splices it into the
// list the way linkHead does, and stops there, as a claimer parked between
// its splice CAS and the CAS that marks the head linked would.
func spliceOnly(m *Map[int64], b uint64, tid int) *atomic.Uint64 {
	d, pred := m.headOf(b), &m.head
	for w := pred.Load(); !atEnd(w); w = pred.Load() {
		if n := m.record(w); n != nil {
			if n.sokey >= dummySoKey(b) {
				break
			}
			pred = &n.next
		} else if c := bucketOf(w); dummySoKey(c) < dummySoKey(b) {
			pred = m.headOf(c)
		} else {
			break
		}
	}
	w := pred.Load()
	d.Store(w&^headState | claimedBy(tid))
	pred.Store(headLink(b) | w&headState)
	return d
}

// TestLinkCASKeepsHeadState: slot 2 has spliced bucket 2's head but not yet
// marked it linked. Slot 1, walking in from bucket 0, inserts behind that
// head, replaces, deletes and re-inserts the key there, and unlinks a marked
// node behind it — each a CAS on the head's word — and the claim must
// survive every one. Then the claimer resumes: the head ends up linked, in
// front of slot 1's key, and Validate passes. A link CAS that wrote a bare
// link would leave the head unclaimed, and the claimer would walk away from
// it.
func TestLinkCASKeepsHeadState(t *testing.T) {
	for _, scheme := range []string{recordmgr.SchemeDEBRA, recordmgr.SchemeHP} {
		t.Run(scheme, func(t *testing.T) {
			m := buildMap(t, scheme, 3, WithInitialBuckets(4), WithMaxBuckets(4))
			hs := reclaimtest.AcquireSlots(3, m.AcquireHandle)
			for _, b := range []uint64{0, 1, 3} {
				for _, k := range keysOfBucket(b, 4, 0, 3) {
					hs[0].Insert(k, k)
				}
			}
			d := spliceOnly(m, 2, 2)
			if err := m.Validate(); err != nil {
				t.Fatalf("with the head spliced and claimed: %v", err)
			}
			key := keysOfBucket(2, 4, 0, 1)[0]
			step := func(name string, op func() bool) {
				t.Helper()
				if !op() {
					t.Fatalf("%s behind the claimed head failed", name)
				}
				if s := stateOf(d); s != claimedBy(2) {
					t.Fatalf("after %s behind the head: state %#x, want the claim %#x", name, s, claimedBy(2))
				}
				if err := m.Validate(); err != nil {
					t.Fatalf("after %s: %v", name, err)
				}
			}
			h := hs[1]
			step("an insert", func() bool { return h.Insert(key, 1) })
			step("a replacing upsert", func() bool { _, replaced := h.Upsert(key, 2); return replaced })
			step("a delete", func() bool { return h.Delete(key) })
			step("an inserting upsert", func() bool { _, replaced := h.Upsert(key, 3); return !replaced })
			markOnly(m, key)
			step("an unlink and insert", func() bool { return h.Insert(key, 4) })

			before := m.Stats().Dummies
			if v, ok := hs[2].Get(key); !ok || v != 4 {
				t.Fatalf("the claimer's Get(%d) = %d, %v", key, v, ok)
			}
			if s := stateOf(d); s != headLinked || m.Stats().Dummies != before+1 {
				t.Fatalf("claimer did not finish: state %#x, dummies %d -> %d", s, before, m.Stats().Dummies)
			}
			if m.record(d.Load()) != nodeOf(m, key) {
				t.Fatal("the linked head is not followed by the key inserted behind it")
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("after the claimer resumed: %v", err)
			}
		})
	}
}

// unlinkFixture is a one-bucket map, a victim in the middle of its chain, and
// a visit hook that — once, when slot 0's find reaches the victim, so before
// its mark CAS — has slot 1 insert a key directly in front of it. The mark
// then succeeds and the CAS on the predecessor that would have unlinked the
// victim loses.
func unlinkFixture(t *testing.T, scheme string) (m *Map[int64], hs []*Handle[int64], victim int64, fired *bool) {
	t.Helper()
	m, hs = oneBucketMap(t, scheme, 2)
	keys := chain(m)
	pred, n := nodeOf(m, keys[2]), nodeOf(m, keys[3])
	// A fresh key whose position falls between the victim's predecessor and
	// the victim.
	wedge := int64(100)
	for ; ; wedge++ {
		so := regularSoKey(hashOf(wedge))
		if pred.sokey < so && so < n.sokey {
			break
		}
	}
	fired = new(bool)
	m.SetVisitHook(func(tid int, v *Node[int64]) {
		if tid != 0 || *fired || v != n {
			return
		}
		*fired = true
		if !hs[1].Insert(wedge, wedge*10) {
			t.Errorf("Insert(%d) in front of the victim failed", wedge)
		}
	})
	return m, hs, keys[3], fired
}

// TestUnlinkBeforeDeleteReturns: a Delete whose own unlink CAS lost does not
// return while its victim is still on the list.
func TestUnlinkBeforeDeleteReturns(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m, hs, victim, fired := unlinkFixture(t, scheme)
			if !hs[0].Delete(victim) {
				t.Fatal("Delete failed")
			}
			if !*fired {
				t.Fatal("the hook never fired: the unlink CAS was not made to lose")
			}
			if linked(m, victim) {
				t.Fatal("Delete returned with its victim still linked")
			}
			if _, ok := hs[1].Get(victim); ok {
				t.Fatal("Get after Delete returned sees the key")
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUnlinkBeforeUpsertReturns: a replacing Upsert whose unlink CAS lost
// (the replacement is linked behind the old node, which is still the binding)
// does not return while the old node is still on the list, and leaves the new
// value.
func TestUnlinkBeforeUpsertReturns(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m, hs, victim, fired := unlinkFixture(t, scheme)
			old := nodeOf(m, victim)
			if prev, replaced := hs[0].Upsert(victim, -1); !replaced || prev != victim*10 {
				t.Fatalf("Upsert = %d, %v", prev, replaced)
			}
			if !*fired {
				t.Fatal("the hook never fired: the unlink CAS was not made to lose")
			}
			if n := nodeOf(m, victim); n == old || n == nil {
				t.Fatalf("Upsert returned with the old node linked (%v) or no node at all", n == old)
			}
			if v, ok := hs[1].Get(victim); !ok || v != -1 {
				t.Fatalf("Get after Upsert returned = %d, %v", v, ok)
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

// TestUnlinkReplacedNodeFirst: an Insert, Delete or Upsert of a key whose
// replacement is pending (old -> new both linked) unlinks the old node on its
// way and then acts on the new one, the binding from that unlink on.
func TestUnlinkReplacedNodeFirst(t *testing.T) {
	ops := []struct {
		name string
		// run applies the operation to the pending pair's key and checks its
		// result; want is the key's value afterwards, absent if !present.
		run     func(h *Handle[int64], key int64) bool
		want    int64
		present bool
	}{
		{"insert", func(h *Handle[int64], key int64) bool { return !h.Insert(key, 7) }, -1, true},
		{"delete", func(h *Handle[int64], key int64) bool { return h.Delete(key) }, 0, false},
		{"upsert", func(h *Handle[int64], key int64) bool {
			prev, replaced := h.Upsert(key, 7)
			return replaced && prev == -1
		}, 7, true},
	}
	for _, scheme := range allSchemes() {
		for _, op := range ops {
			t.Run(scheme+"/"+op.name, func(t *testing.T) {
				m, hs := oneBucketMap(t, scheme, 1)
				victim := chain(m)[3]
				old, _ := replaceOnly(m, hs[0], victim, -1)
				before := m.Stats().Unlinks
				if !op.run(hs[0], victim) {
					t.Fatalf("%s of a key with a pending replacement returned the wrong result", op.name)
				}
				if linked(m, victim) && nodeOf(m, victim) == old {
					t.Fatal("old node still linked")
				}
				if m.Stats().Unlinks == before {
					t.Fatal("no unlink counted")
				}
				if v, ok := hs[0].Get(victim); ok != op.present || ok && v != op.want {
					t.Fatalf("Get(%d) = %d, %v; want %d, %v", victim, v, ok, op.want, op.present)
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
}

// TestOverwriteNeverAbsent: an overwrite never passes through absence. The
// replacing Upsert's unlink CAS is made to lose (unlinkFixture), and from the
// wedge insert on slot 1 reads the key at every node slot 0 visits — through
// the lost CAS, the postamble's find and the unlink — and must find the old
// value or the new one every time.
func TestOverwriteNeverAbsent(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m, hs, victim, fired := unlinkFixture(t, scheme)
			wedge := m.visit
			reads := 0
			m.SetVisitHook(func(tid int, n *Node[int64]) {
				wedge(tid, n)
				if tid != 0 || !*fired {
					return
				}
				reads++
				if v, ok := hs[1].Get(victim); !ok || v != victim*10 && v != -1 {
					t.Errorf("Get(%d) at visit %d of the overwrite = %d, %v", victim, reads, v, ok)
				}
			})
			if prev, replaced := hs[0].Upsert(victim, -1); !replaced || prev != victim*10 {
				t.Fatalf("Upsert = %d, %v", prev, replaced)
			}
			if !*fired || reads < 2 {
				t.Fatalf("the unlink CAS was not made to lose (fired %v, %d reads after)", *fired, reads)
			}
			if v, ok := hs[1].Get(victim); !ok || v != -1 {
				t.Fatalf("Get after Upsert returned = %d, %v", v, ok)
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

// TestOverwriteNeverAbsentConcurrent: one key, every scheme. A writer
// overwrites it with ever larger values (all above the prefill's) and never
// deletes it, while another
// handle churns its list neighbour so that the writer's unlink CASes lose
// often. A reader must find the key at every read, with a value no older
// than the last one it read.
func TestOverwriteNeverAbsentConcurrent(t *testing.T) {
	iters := int64(20000)
	if testing.Short() {
		iters = 4000
	}
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m, hs := oneBucketMap(t, scheme, 3)
			keys := chain(m)
			neighbour, key := keys[2], keys[3]
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(3)
			go func() { // writer
				defer wg.Done()
				defer stop.Store(true)
				for v := int64(1000); v < 1000+iters; v++ {
					hs[0].Upsert(key, v)
				}
			}()
			go func() { // neighbour churn
				defer wg.Done()
				for !stop.Load() {
					hs[1].Delete(neighbour)
					hs[1].Insert(neighbour, neighbour*10)
				}
			}()
			go func() { // reader
				defer wg.Done()
				last := int64(0)
				for !stop.Load() {
					v, ok := hs[2].Get(key)
					if !ok {
						t.Errorf("Get(%d) found a key that is only ever overwritten absent", key)
						return
					}
					if v < last {
						t.Errorf("Get(%d) = %d after it read %d", key, v, last)
						return
					}
					last = v
				}
			}()
			wg.Wait()
			if v, ok := hs[0].Get(key); !ok || v != 999+iters {
				t.Fatalf("Get(%d) after the writer returned = %d, %v", key, v, ok)
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

// TestUnlinkOrdersGetAfterUpdate: handles on one key, every epoch scheme.
// The writer replaces the key's value with ever larger ones, deleting it now
// and then, while another handle churns the key's list neighbour so that the
// writer's CASes on the predecessor lose often. After each update returns,
// the writer reads the key through a second handle: a Get issued after a
// Delete returned must not find the key, one issued after an Upsert returned
// must find that Upsert's value. A concurrent reader checks the same against
// a published floor: a value below it was removed by a call that had returned
// before the Get began.
func TestUnlinkOrdersGetAfterUpdate(t *testing.T) {
	iters := int64(20000)
	if testing.Short() {
		iters = 4000
	}
	for _, scheme := range epochSchemes {
		t.Run(scheme, func(t *testing.T) {
			m, hs := oneBucketMap(t, scheme, 4)
			keys := chain(m)
			neighbour, key := keys[2], keys[3]
			var floor atomic.Int64 // values below this were removed by calls that have returned
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(3)
			go func() { // writer
				defer wg.Done()
				defer stop.Store(true)
				update, read := hs[0], hs[3]
				for v := int64(1000); v < 1000+iters; v++ {
					if v%4 == 0 {
						update.Delete(key)
						floor.Store(v)
						if got, ok := read.Get(key); ok {
							t.Errorf("Get after Delete returned = %d", got)
							return
						}
					}
					update.Upsert(key, v)
					floor.Store(v)
					if got, ok := read.Get(key); !ok || got != v {
						t.Errorf("Get after Upsert(%d) returned = %d, %v", v, got, ok)
						return
					}
				}
			}()
			go func() { // neighbour churn
				defer wg.Done()
				h := hs[1]
				for !stop.Load() {
					h.Delete(neighbour)
					h.Insert(neighbour, neighbour*10)
				}
			}()
			go func() { // reader
				defer wg.Done()
				h := hs[2]
				for !stop.Load() {
					lo := floor.Load()
					if v, ok := h.Get(key); ok && v >= 1000 && v < lo {
						t.Errorf("Get saw %d after the update that removed it returned (floor %d)", v, lo)
						return
					}
				}
			}()
			wg.Wait()
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

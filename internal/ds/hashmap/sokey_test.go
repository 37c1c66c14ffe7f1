package hashmap

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

// TestSoKeyRoundTrip: a node stores no key, so the sokey must give it back —
// keyOf inverts regularSoKey∘hashOf, and unmix64 inverts mix64 both ways.
func TestSoKeyRoundTrip(t *testing.T) {
	keys := []int64{0, -1, 1, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		keys = append(keys, int64(rng.Uint64()))
	}
	for _, k := range keys {
		if got := keyOf(regularSoKey(hashOf(k))); got != k {
			t.Fatalf("keyOf(regularSoKey(hashOf(%d))) = %d", k, got)
		}
		x := uint64(k)
		if unmix64(mix64(x)) != x || mix64(unmix64(x)) != x {
			t.Fatalf("unmix64 does not invert mix64 at %#x", x)
		}
	}
	// Key 0 hashes to 0, so it ties with bucket 0's head in every map.
	if hashOf(0) != 0 || regularSoKey(hashOf(0)) != dummySoKey(0) {
		t.Fatalf("key 0: hash %#x, sokey %#x, want both 0", hashOf(0), regularSoKey(hashOf(0)))
	}
}

func FuzzSoKeyRoundTrip(f *testing.F) {
	for _, k := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, k int64) {
		if got := keyOf(regularSoKey(hashOf(k))); got != k {
			t.Fatalf("keyOf(regularSoKey(hashOf(%d))) = %d", k, got)
		}
	})
}

// TestHeadTies: the key whose hash is b has the sokey of bucket b's head, and
// the head must sort first. Key 0 and the keys hashing to 1, 3, 5 and 7 go in
// while the table has one bucket, so heads 1-7 are spliced in front of nodes
// they tie with; then they are deleted and inserted again behind linked
// heads. At every stage Get, ForEach and Validate agree, and each head is
// directly followed by its tying node.
func TestHeadTies(t *testing.T) {
	buckets := []uint64{1, 3, 5, 7}
	keys := []int64{0}
	for _, b := range buckets {
		keys = append(keys, int64(unmix64(b)))
	}
	for _, scheme := range []string{recordmgr.SchemeDEBRA, recordmgr.SchemeHP} {
		t.Run(scheme, func(t *testing.T) {
			m := buildMap(t, scheme, 1, WithInitialBuckets(1), WithMaxLoad(8), WithMaxBuckets(16))
			hd := reclaimtest.AcquireSlots(1, m.AcquireHandle)[0]
			check := func(stage string, present bool) {
				t.Helper()
				all := map[int64]int64{}
				m.ForEach(func(k, v int64) bool { all[k] = v; return true })
				for _, k := range keys {
					if v, ok := hd.Get(k); ok != present || present && v != k*10 {
						t.Fatalf("%s: Get(%d) = %d, %v", stage, k, v, ok)
					}
					if v, ok := all[k]; ok != present || present && v != k*10 {
						t.Fatalf("%s: ForEach saw key %d: %d, %v", stage, k, v, ok)
					}
				}
				for i, k := range keys {
					d := &m.head
					if i > 0 {
						if buckets[i-1] >= uint64(m.Buckets()) {
							continue
						}
						d = m.headOf(buckets[i-1])
					}
					if present && stateOf(d) == headLinked && m.record(d.Load()) != nodeOf(m, k) {
						t.Fatalf("%s: the node after the head key %d ties with is not its own", stage, k)
					}
				}
				if err := m.Validate(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
			}
			for _, k := range keys {
				if !hd.Insert(k, k*10) {
					t.Fatalf("Insert(%d) into one bucket failed", k)
				}
			}
			if m.Buckets() != 1 {
				t.Fatalf("%d keys grew the table to %d buckets", len(keys), m.Buckets())
			}
			check("one bucket", true)
			for k := int64(1 << 20); m.Buckets() < 16; k++ {
				hd.Insert(k, k*10)
			}
			for i, b := range buckets {
				hd.Get(keys[i+1])
				if stateOf(m.headOf(b)) != headLinked {
					t.Fatalf("head %d not linked after a Get in its bucket", b)
				}
			}
			check("heads linked in front", true)
			for _, k := range keys {
				if !hd.Delete(k) {
					t.Fatalf("Delete(%d) failed", k)
				}
			}
			check("deleted", false)
			for _, k := range keys {
				if !hd.Insert(k, k*10) {
					t.Fatalf("Insert(%d) behind its linked head failed", k)
				}
			}
			check("inserted behind linked heads", true)
		})
	}
}

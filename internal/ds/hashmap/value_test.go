package hashmap_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/hashmap"
	"repro/internal/pool"
	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

// TestUpsertFuncFill: fill sees the zero value on a fresh record and, once a
// replaced node has been freed and comes back through the pool, a value a
// retired node held — never the value of the node still in the map.
func TestUpsertFuncFill(t *testing.T) {
	for _, scheme := range allSchemes() {
		if scheme == recordmgr.SchemeNone {
			continue // frees nothing, so nothing comes back
		}
		t.Run(scheme, func(t *testing.T) {
			m := newMap(t, scheme, 1)
			hd := reclaimtest.AcquireSlots(1, m.AcquireHandle)[0]
			old := int64(-1)
			if hd.UpsertFunc(1, func(o int64) int64 { old = o; return 1 }) {
				t.Fatal("UpsertFunc into an empty map replaced")
			}
			if old != 0 {
				t.Fatalf("fill of a fresh record saw %d, want 0", old)
			}
			// Every stored value is unique, so seeing the live one would mean
			// fill was handed the live node.
			for v := int64(2); ; v++ {
				if v == 10000 {
					t.Fatal("no replaced node came back through the pool in 10000 upserts")
				}
				live := v - 1
				if !hd.UpsertFunc(1, func(o int64) int64 { old = o; return v }) {
					t.Fatalf("UpsertFunc of present key 1 did not replace (v=%d)", v)
				}
				if old == live || old < 0 || old > live {
					t.Fatalf("fill saw %d with %d in the map", old, live)
				}
				if old != 0 {
					break
				}
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestViewSkipsAbsentKeys: View calls fn exactly when the key is present, and
// then once — not for a key never inserted, one that falls between present
// neighbours, or one deleted.
func TestViewSkipsAbsentKeys(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme, func(t *testing.T) {
			m := newMap(t, scheme, 1)
			hd := reclaimtest.AcquireSlots(1, m.AcquireHandle)[0]
			absent := func(key int64) {
				t.Helper()
				if hd.View(key, func(v int64) { t.Fatalf("View(%d) called fn with %d", key, v) }) {
					t.Fatalf("View(%d) reported an absent key present", key)
				}
			}
			absent(1)
			for k := int64(0); k < 64; k += 2 {
				hd.Insert(k, k*10)
			}
			for k := int64(0); k < 64; k++ {
				if k%2 == 1 {
					absent(k)
					continue
				}
				var got int64
				calls := 0
				if !hd.View(k, func(v int64) { got = v; calls++ }) || got != k*10 {
					t.Fatalf("View(%d) = %d, want %d", k, got, k*10)
				}
				if calls != 1 {
					t.Fatalf("View(%d) called fn %d times, want 1", k, calls)
				}
			}
			hd.Delete(4)
			absent(4)
		})
	}
}

// TestViewNeverSeesFreedRecord is the poison-sink stress of View over a map
// whose values' arrays UpsertFunc recycles: workers upsert self-describing
// values into recycled arrays, view and delete on a few shared keys, and fn
// checks that the node it reads (the last one the walk visited with its key)
// is not freed and that the bytes are one whole value for that key. Under
// -race a fill writing an array a View still reads is also a reported race.
func TestViewNeverSeesFreedRecord(t *testing.T) {
	const (
		threads = 4
		keys    = 16
	)
	duration := 150 * time.Millisecond
	if testing.Short() {
		duration = 50 * time.Millisecond
	}
	for _, scheme := range []string{recordmgr.SchemeEBR, recordmgr.SchemeQSBR, recordmgr.SchemeDEBRA, recordmgr.SchemeHP} {
		t.Run(scheme, func(t *testing.T) {
			type rec = hashmap.Node[[]byte]
			alloc := arena.NewBump[rec](threads, 0)
			pp := reclaimtest.NewPoisonPool[rec, *rec](pool.New[rec](threads, alloc))
			rcl, err := recordmgr.NewReclaimer[rec](scheme, threads, pp, nil)
			if err != nil {
				t.Fatal(err)
			}
			mgr := core.NewRecordManager[rec](alloc, pp, rcl)
			m := hashmap.New[[]byte](mgr, threads, hashmap.WithInitialBuckets(2), hashmap.WithMaxLoad(2))
			// want[tid] is the key tid's View looks for, last[tid] the last
			// node holding it the walk visited; both touched only by tid.
			var want [threads]int64
			var last [threads]*rec
			m.SetVisitHook(func(tid int, n *rec) {
				if n.Key() == want[tid] {
					last[tid] = n
				}
			})
			var freed, torn, views atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					hd := m.AcquireHandle()
					defer m.ReleaseHandle(hd)
					tid := hd.Tid()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					for seq := uint32(w) << 24; ; seq++ {
						select {
						case <-stop:
							return
						default:
						}
						key := 1 + rng.Int63n(keys)
						switch r := rng.Intn(10); {
						case r < 4:
							n := 12 + rng.Intn(53)
							hd.UpsertFunc(key, func(old []byte) []byte {
								if cap(old) < n {
									old = make([]byte, n)
								}
								return fillValue(old[:n], key, seq)
							})
						case r < 9:
							want[tid], last[tid] = key, nil
							hd.View(key, func(v []byte) {
								views.Add(1)
								if n := last[tid]; n == nil || n.IsPoisoned() {
									freed.Add(1)
								}
								if !wholeValue(v, key) {
									torn.Add(1)
								}
							})
						default:
							hd.Delete(key)
						}
					}
				}(w)
			}
			// Run for duration, then on until a record was recycled and a
			// View ran: a short run under hp and -race can stay below the
			// scan threshold and check nothing. Give up after 10 s.
			time.Sleep(duration)
			for deadline := time.Now().Add(10 * time.Second); (pp.Freed() == 0 || views.Load() == 0) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			close(stop)
			wg.Wait()
			if freed.Load() != 0 || torn.Load() != 0 || pp.DoubleFrees() != 0 {
				t.Fatalf("%d of %d views read a freed node, %d a torn value; %d double frees",
					freed.Load(), views.Load(), torn.Load(), pp.DoubleFrees())
			}
			if pp.Freed() == 0 {
				t.Fatal("nothing was freed: the stress did not recycle a record")
			}
			if views.Load() == 0 {
				t.Fatal("no View ran")
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			mgr.Close()
		})
	}
}

// fillValue writes a value that names its key and writer sequence number
// into v: key, seq, then len(v)-12 bytes derived from seq.
func fillValue(v []byte, key int64, seq uint32) []byte {
	binary.LittleEndian.PutUint64(v, uint64(key))
	binary.LittleEndian.PutUint32(v[8:], seq)
	for i := 12; i < len(v); i++ {
		v[i] = byte(seq) + byte(i)
	}
	return v
}

// wholeValue reports whether v is exactly what fillValue wrote for key.
func wholeValue(v []byte, key int64) bool {
	if len(v) < 12 {
		return false
	}
	want := fillValue(make([]byte, len(v)), key, binary.LittleEndian.Uint32(v[8:]))
	return bytes.Equal(v, want)
}

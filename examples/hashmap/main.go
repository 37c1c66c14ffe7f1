// Hashmap quickstart: build a Record Manager, plug it into the lock-free
// split-ordered hash map, and run concurrent workers while the table resizes
// itself incrementally under load. As everywhere in this module, the
// reclamation scheme — including the neutralizing DEBRA+ — is the single
// string constant below.
package main

import (
	"fmt"
	"sync"

	"repro/internal/ds/hashmap"
	"repro/internal/recordmgr"
)

const (
	// scheme is the reclamation scheme behind the map. The hash map runs
	// with all six: "none", "ebr", "qsbr", "debra", "debra+" or "hp".
	scheme  = recordmgr.SchemeDEBRAPlus
	workers = 4
	keys    = 20_000
)

func main() {
	mgr := recordmgr.MustBuild[hashmap.Node[string]](recordmgr.Config{
		Scheme:  scheme,
		Threads: workers,
		UsePool: true,
	})
	// Start with the default tiny table so incremental resizing (lock-free
	// table doubling plus lazy bucket splicing) happens under full load.
	m := hashmap.New(mgr, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.AcquireHandle()
			defer m.ReleaseHandle(h)
			base := int64(w) * keys
			for i := int64(0); i < keys; i++ {
				key := base + i
				h.Insert(key, fmt.Sprintf("value-%d", key))
				if i%2 == 0 {
					h.Delete(key)
				}
				h.Contains(key - 1)
			}
		}(w)
	}
	wg.Wait()

	if err := m.Validate(); err != nil {
		panic(err)
	}
	fmt.Printf("scheme: %s\n", scheme)
	fmt.Printf("live keys: %d (count %d), buckets: %d\n", m.Len(), m.Count(), m.Buckets())
	ds := m.Stats()
	fmt.Printf("map ops: restarts=%d unlinks=%d resizes=%d dummies=%d\n",
		ds.Restarts, ds.Unlinks, ds.Resizes, ds.Dummies)
	st := mgr.Stats()
	fmt.Printf("records: allocated=%d reused=%d retired=%d freed=%d in-limbo=%d neutralizations=%d\n",
		st.Alloc.Allocated, st.Pool.Reused, st.Reclaimer.Retired,
		st.Reclaimer.Freed, st.Reclaimer.Limbo, st.Reclaimer.Neutralizations)
}

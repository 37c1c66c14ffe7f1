package recordmgr_test

import (
	"fmt"

	"repro/internal/ds/bst"
	"repro/internal/recordmgr"
)

// Example runs the identical BST workload under every reclamation scheme,
// changing only the Record Manager's construction: the paper's "interchange
// schemes by changing a single line of code". After Close, every reclaiming
// scheme has freed what it retired; the leaking baseline none has freed
// nothing.
func Example() {
	for _, scheme := range recordmgr.Schemes() {
		// The one line that changes between schemes:
		mgr := recordmgr.MustBuild[bst.Record[int64]](recordmgr.Config{Scheme: scheme, Threads: 1, UsePool: true})

		tree := bst.New(mgr)
		h := tree.AcquireHandle() // once per goroutine
		for k := int64(0); k < 1000; k++ {
			h.Insert(k, k)
		}
		for k := int64(0); k < 1000; k++ {
			h.Delete(k)
		}
		tree.ReleaseHandle(h)
		mgr.Close()
		st := mgr.Stats()
		fmt.Printf("%-6s retired %d, freed %d, unreclaimed %d\n",
			scheme, st.Reclaimer.Retired, st.Reclaimer.Freed, st.Unreclaimed)
	}
	// Output:
	// debra  retired 3000, freed 3000, unreclaimed 0
	// debra+ retired 3000, freed 3000, unreclaimed 0
	// ebr    retired 3000, freed 3000, unreclaimed 0
	// hp     retired 3000, freed 3000, unreclaimed 0
	// none   retired 3000, freed 0, unreclaimed 3000
	// qsbr   retired 3000, freed 3000, unreclaimed 0
}

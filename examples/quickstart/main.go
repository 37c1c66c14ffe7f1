// Quickstart: build a Record Manager, plug it into a lock-free queue and a
// lock-free BST, and run a few concurrent workers. Changing the reclamation
// scheme — the whole point of the Record Manager abstraction — is the single
// string constant below.
package main

import (
	"fmt"
	"sync"

	"repro/internal/ds/bst"
	"repro/internal/ds/queue"
	"repro/internal/recordmgr"
)

const (
	// scheme is the reclamation scheme used by both structures. Try
	// "none", "ebr", "qsbr", "debra", "debra+" or "hp".
	scheme  = recordmgr.SchemeDEBRA
	workers = 4
)

func main() {
	// A Record Manager per record type: one for tree records, one for queue
	// nodes. Each pairs an allocator, an object pool and a reclaimer.
	treeMgr := recordmgr.MustBuild[bst.Record[string]](recordmgr.Config{
		Scheme:  scheme,
		Threads: workers,
		UsePool: true,
	})
	queueMgr := recordmgr.MustBuild[queue.Node[int]](recordmgr.Config{
		Scheme:  scheme,
		Threads: workers,
		UsePool: true,
	})

	tree := bst.New(treeMgr)
	q := queue.New(queueMgr)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A goroutine acquires a thread handle per structure for its
			// working lifetime and issues every operation through it.
			th := tree.AcquireHandle()
			defer tree.ReleaseHandle(th)
			qh := q.AcquireHandle()
			defer q.ReleaseHandle(qh)
			for i := 0; i < 10_000; i++ {
				key := int64(w*10_000 + i)
				th.Insert(key, fmt.Sprintf("value-%d", key))
				qh.Enqueue(int(key))
				if i%2 == 0 {
					th.Delete(key)
					qh.Dequeue()
				}
			}
		}(w)
	}
	wg.Wait()

	fmt.Printf("scheme: %s\n", scheme)
	fmt.Printf("tree size: %d, queue length: %d\n", tree.Len(), q.Len())
	ts := treeMgr.Stats()
	fmt.Printf("tree records: allocated=%d reused=%d retired=%d freed=%d in-limbo=%d\n",
		ts.Alloc.Allocated, ts.Pool.Reused, ts.Reclaimer.Retired, ts.Reclaimer.Freed, ts.Reclaimer.Limbo)
	qs := queueMgr.Stats()
	fmt.Printf("queue records: allocated=%d reused=%d retired=%d freed=%d in-limbo=%d\n",
		qs.Alloc.Allocated, qs.Pool.Reused, qs.Reclaimer.Retired, qs.Reclaimer.Freed, qs.Reclaimer.Limbo)
}

package queue_test

import (
	"sync"
	"testing"

	"repro/internal/ds/queue"
	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

func newQueue(t testing.TB, scheme string, threads int) *queue.Queue[int64] {
	t.Helper()
	mgr, err := recordmgr.Build[queue.Node[int64]](recordmgr.Config{
		Scheme:    scheme,
		Threads:   threads,
		Allocator: recordmgr.AllocBump,
		UsePool:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return queue.New(mgr)
}

func schemes() []string { return recordmgr.Schemes() }

func TestFIFOOrderSingleThread(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme, func(t *testing.T) {
			q := newQueue(t, scheme, 1)
			hs := reclaimtest.AcquireSlots(1, q.AcquireHandle)
			if _, ok := hs[0].Dequeue(); ok {
				t.Fatal("dequeue on empty queue returned a value")
			}
			const n = 1000
			for i := int64(0); i < n; i++ {
				hs[0].Enqueue(i)
			}
			if q.Len() != n {
				t.Fatalf("Len=%d want %d", q.Len(), n)
			}
			for i := int64(0); i < n; i++ {
				v, ok := hs[0].Dequeue()
				if !ok || v != i {
					t.Fatalf("Dequeue = (%d,%v), want %d", v, ok, i)
				}
			}
			if _, ok := hs[0].Dequeue(); ok {
				t.Fatal("queue should be empty")
			}
		})
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme, func(t *testing.T) {
			const producers = 4
			const consumers = 4
			const perProducer = 3000
			q := newQueue(t, scheme, producers+consumers)
			hs := reclaimtest.AcquireSlots(producers+consumers, q.AcquireHandle)

			var wg sync.WaitGroup
			results := make([][]int64, consumers)
			var remaining sync.WaitGroup
			remaining.Add(producers)

			done := make(chan struct{})
			go func() {
				remaining.Wait()
				close(done)
			}()

			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					tid := producers + c
					var got []int64
					for {
						v, ok := hs[tid].Dequeue()
						if ok {
							got = append(got, v)
							continue
						}
						select {
						case <-done:
							// Drain whatever is left.
							for {
								v, ok := hs[tid].Dequeue()
								if !ok {
									results[c] = got
									return
								}
								got = append(got, v)
							}
						default:
						}
					}
				}(c)
			}
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					defer remaining.Done()
					for i := 0; i < perProducer; i++ {
						hs[p].Enqueue(int64(p*perProducer + i))
					}
				}(p)
			}
			wg.Wait()

			seen := map[int64]bool{}
			total := 0
			perProducerLast := make(map[int][]int64)
			for c, got := range results {
				for _, v := range got {
					if seen[v] {
						t.Fatalf("value %d dequeued twice", v)
					}
					seen[v] = true
					total++
					producer := int(v) / perProducer
					perProducerLast[producer] = append(perProducerLast[producer], v)
					_ = c
				}
			}
			if total != producers*perProducer {
				t.Fatalf("dequeued %d values, want %d", total, producers*perProducer)
			}
			if q.Len() != 0 {
				t.Fatalf("queue not empty at end: %d", q.Len())
			}
			st := q.Manager().Stats()
			if st.Reclaimer.Retired == 0 {
				t.Fatal("no nodes were retired")
			}
		})
	}
}

func TestReclamationRecyclesNodes(t *testing.T) {
	q := newQueue(t, recordmgr.SchemeDEBRA, 1)
	hs := reclaimtest.AcquireSlots(1, q.AcquireHandle)
	for i := 0; i < 50000; i++ {
		hs[0].Enqueue(int64(i))
		hs[0].Dequeue()
	}
	st := q.Manager().Stats()
	if st.Reclaimer.Freed == 0 || st.Pool.Reused == 0 {
		t.Fatalf("reclamation pipeline inactive: %+v", st.Reclaimer)
	}
}

func TestNewRequiresManager(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	queue.New[int64](nil)
}

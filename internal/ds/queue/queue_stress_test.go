package queue_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ds/queue"
	"repro/internal/neutralize"
	"repro/internal/pool"
	"repro/internal/reclaimtest"
	"repro/internal/recordmgr"
)

// queueWorker adapts an acquired queue handle to the reclaimtest.QueueWorker
// surface.
type queueWorker struct{ h queue.Handle[int64] }

func (w queueWorker) Enqueue(v int64)        { w.h.Enqueue(v) }
func (w queueWorker) Dequeue() (int64, bool) { return w.h.Dequeue() }
func (w queueWorker) Release()               { w.h.Queue().ReleaseHandle(w.h) }

// poisonedQueueFactory builds a queue whose pool poisons freed records and
// whose visit hook counts observations of poisoned records, mirroring the
// hash map's poison-sink harness (see poisonedMapFactory there). The
// neutralization domain is created here so the hook can discard observations
// made with a signal pending (a doomed DEBRA+ attempt whose results are
// thrown away).
func poisonedQueueFactory(t *testing.T, scheme string, batch int) reclaimtest.QueueFactory {
	return func(n int) reclaimtest.QueueUnderTest {
		type rec = queue.Node[int64]
		alloc := arena.NewBump[rec](n, 0)
		pp := reclaimtest.NewPoisonPool[rec, *rec](pool.New[rec](n, alloc))
		dom := neutralize.NewDomain(n)
		rcl, err := recordmgr.NewReclaimer[rec](scheme, n, pp, dom)
		if err != nil {
			t.Fatal(err)
		}
		var mopts []core.ManagerOption
		if batch > 0 {
			mopts = append(mopts, core.WithRetireBatching(n, batch))
		}
		mgr := core.NewRecordManager[rec](alloc, pp, rcl, mopts...)
		q := queue.New[int64](mgr)
		var violations atomic.Int64
		q.SetVisitHook(func(tid int, nd *queue.Node[int64]) {
			if nd.IsPoisoned() && !dom.Pending(tid) {
				violations.Add(1)
			}
		})
		return reclaimtest.QueueUnderTest{
			AcquireWorker: func() reclaimtest.QueueWorker { return queueWorker{q.AcquireHandle()} },
			Violations:    violations.Load,
			DoubleFrees:   pp.DoubleFrees,
			Stats:         rcl.Stats,
			Len:           q.Len,
		}
	}
}

// TestStressAllSchemes runs the poison-sink queue stress under all six
// reclamation schemes.
func TestStressAllSchemes(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(reclaimtest.StressName(scheme), func(t *testing.T) {
			reclaimtest.StressQueue(t, poisonedQueueFactory(t, scheme, 0), reclaimtest.DefaultQueueStressOptions())
		})
	}
}

// TestStressBatchedRetirement runs the queue stress with deferred-retire
// batching. The queue retires one record per dequeue, so a batch parks up
// to the batch size per thread — the conservation check still balances
// because parked records are already dequeued (their values were delivered
// before retirement).
func TestStressBatchedRetirement(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme, func(t *testing.T) {
			factory := poisonedQueueFactory(t, scheme, 64)
			opts := reclaimtest.DefaultQueueStressOptions()
			opts.Duration = 80 * time.Millisecond
			reclaimtest.StressQueue(t, factory, opts)
		})
	}
}

package reclaimtest

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// QueueWorker is one worker of a queue under stress: an acquired thread slot
// with the FIFO operations bound to it (the Michael-Scott queue's shape).
// Values are int64 so the harness can encode (producer, sequence number)
// pairs and verify exactly-once delivery. Release returns the slot.
type QueueWorker interface {
	Enqueue(value int64)
	Dequeue() (int64, bool)
	Release()
}

// QueueUnderTest couples the queue being stressed with its observation
// counters, mirroring SetUnderTest.
type QueueUnderTest struct {
	// AcquireWorker binds the calling goroutine to a vacant thread slot and
	// returns the slot-bound operations.
	AcquireWorker func() QueueWorker
	// Violations returns the number of freed-record observations made by the
	// queue's traversal instrumentation (visit hook + poison wrappers). Nil
	// disables the check.
	Violations func() int64
	// DoubleFrees returns the poison wrapper's double-free count. Nil
	// disables the check.
	DoubleFrees func() int64
	// Stats returns the reclaimer's counters. Nil disables the check.
	Stats func() core.Stats
	// Len returns the number of elements in the queue (quiescent use only);
	// nil disables the conservation check.
	Len func() int
}

// QueueFactory builds a fresh queue instance for n threads.
type QueueFactory func(n int) QueueUnderTest

// QueueStressOptions tunes StressQueue.
type QueueStressOptions struct {
	Threads  int
	Duration time.Duration
	// EnqueuePct is the percentage of operations that enqueue; the rest
	// dequeue (values below 50 keep the queue short, maximising head/tail
	// contention and node recycling).
	EnqueuePct int
}

// DefaultQueueStressOptions returns options suitable for `go test`.
func DefaultQueueStressOptions() QueueStressOptions {
	return QueueStressOptions{Threads: 6, Duration: 150 * time.Millisecond, EnqueuePct: 50}
}

// seqShift packs (tid, seq) into an int64 value: value = tid<<seqShift | seq.
const seqShift = 40

// StressQueue runs concurrent enqueue/dequeue churn over the queue produced
// by factory and fails the test if the instrumentation observed a freed
// record, any record was freed twice, a value was lost, duplicated or
// invented, or the element count fails to balance — the queue-shaped
// analogue of StressSet's poison-sink safety harness.
func StressQueue(t *testing.T, factory QueueFactory, opts QueueStressOptions) {
	t.Helper()
	if opts.Threads <= 0 {
		opts = DefaultQueueStressOptions()
	}
	qu := factory(opts.Threads)
	if qu.AcquireWorker == nil {
		t.Fatal("QueueFactory returned no AcquireWorker")
	}

	var (
		enqCount = make([]atomic.Int64, opts.Threads)
		dequeued = make([][]int64, opts.Threads)
	)
	runStress(t, opts.Threads, opts.Duration, func(tid int, stop *atomic.Bool, done *atomic.Int64) {
		rng := rand.New(rand.NewSource(int64(tid)*7919 + 3))
		w := qu.AcquireWorker()
		defer w.Release()
		seq := int64(0)
		for ops := int64(1); !stop.Load(); ops++ {
			if rng.Intn(100) < opts.EnqueuePct {
				w.Enqueue(int64(tid)<<seqShift | seq)
				seq++
				enqCount[tid].Store(seq)
			} else if v, ok := w.Dequeue(); ok {
				dequeued[tid] = append(dequeued[tid], v)
			}
			done.Store(ops)
		}
	})

	// Exactly-once delivery: every dequeued value decodes to a (tid, seq)
	// that was actually enqueued, and no value appears twice.
	seen := make(map[int64]bool)
	totalDeq := int64(0)
	for _, vals := range dequeued {
		for _, v := range vals {
			producer := v >> seqShift
			seq := v & (1<<seqShift - 1)
			if producer < 0 || producer >= int64(opts.Threads) || seq >= enqCount[producer].Load() {
				t.Fatalf("dequeued value %#x was never enqueued (producer %d, seq %d)", v, producer, seq)
			}
			if seen[v] {
				t.Fatalf("value %#x was dequeued twice", v)
			}
			seen[v] = true
			totalDeq++
		}
	}
	totalEnq := int64(0)
	for i := range enqCount {
		totalEnq += enqCount[i].Load()
	}
	if totalDeq > totalEnq {
		t.Fatalf("dequeued %d values but only %d were enqueued", totalDeq, totalEnq)
	}
	if qu.Len != nil {
		if rest := int64(qu.Len()); totalDeq+rest != totalEnq {
			t.Fatalf("conservation failure: enqueued %d, dequeued %d, %d left in the queue", totalEnq, totalDeq, rest)
		}
	}
	if qu.Violations != nil {
		if v := qu.Violations(); v != 0 {
			t.Fatalf("use-after-free: %d traversal visits observed a freed record", v)
		}
	}
	if qu.DoubleFrees != nil {
		if d := qu.DoubleFrees(); d != 0 {
			t.Fatalf("%d records were freed more than once", d)
		}
	}
	if qu.Stats != nil {
		stats := qu.Stats()
		if stats.Freed > stats.Retired {
			t.Fatalf("freed (%d) exceeds retired (%d)", stats.Freed, stats.Retired)
		}
		if stats.Limbo < 0 {
			t.Fatalf("negative limbo count: %d", stats.Limbo)
		}
	}
	if totalEnq == 0 {
		t.Fatal("stress performed no enqueues")
	}
}

package reclaimtest

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// Worker is one worker of a set under stress: an acquired thread slot with
// the set's operations bound to it (the data structures' AcquireHandle
// surface). Implementations are expected to handle their own restarts and
// neutralization recovery internally (a real data structure, unlike the
// raw-reclaimer Stress above). Release returns the slot for reuse; the worker
// must not be used afterwards.
type Worker interface {
	Insert(key int64) bool
	Delete(key int64) bool
	Contains(key int64) bool
	Release()
}

// SetUnderTest couples the set being stressed with the observation counters
// its instrumentation exposes.
type SetUnderTest struct {
	// AcquireWorker binds the calling goroutine to a vacant thread slot and
	// returns the slot-bound operations.
	AcquireWorker func() Worker
	// RequireDrained, when true, makes the churn stress assert
	// Retired == Freed after Close (every reclaiming scheme; the leaking
	// baseline leaves it false).
	RequireDrained bool
	// Violations returns the number of freed-record observations the set's
	// traversal instrumentation made (wired to the poison wrappers; see
	// Poisonable). Nil disables the check.
	Violations func() int64
	// DoubleFrees returns the poison wrapper's double-free count. Nil
	// disables the check.
	DoubleFrees func() int64
	// Stats returns the reclaimer's counters. Nil disables the check.
	Stats func() core.Stats
	// Validate, when non-nil, is a quiescent structural check run after the
	// stress (for example the hash map's split-order validation).
	Validate func() error
	// Close, when non-nil, shuts the reclamation pipeline down after all
	// checks (Record Manager Close: flush, limbo force-free).
	// StressSet re-checks the double-free counter afterwards, so shutdown
	// draining is covered by the same poison instrumentation.
	Close func()
}

// SetFactory builds a fresh set instance for n threads.
type SetFactory func(n int) SetUnderTest

// SetStressOptions tunes StressSet and StressSetChurn.
type SetStressOptions struct {
	Threads  int
	Duration time.Duration
	// KeyRange is the shared key universe all threads contend on.
	KeyRange int64
	// PrivateKeys is the number of keys each thread owns exclusively, used
	// for deterministic semantic checks under concurrent load (an op on a
	// private key has exactly one correct answer).
	PrivateKeys int64
	// InsertPct and DeletePct are percentages of the mixed shared-range
	// workload; the remainder are Contains calls.
	InsertPct, DeletePct int
	// OpsPerSlot is the number of operations a churn-stress goroutine
	// performs between releasing its thread slot and acquiring a fresh one
	// (StressSetChurn only; 0 picks a default).
	OpsPerSlot int
}

// DefaultSetStressOptions returns options suitable for `go test`.
func DefaultSetStressOptions() SetStressOptions {
	return SetStressOptions{
		Threads:     6,
		Duration:    150 * time.Millisecond,
		KeyRange:    512,
		PrivateKeys: 64,
		InsertPct:   40,
		DeletePct:   40,
	}
}

// StressSet runs concurrent mixed churn over the set produced by factory and
// fails the test if the set's instrumentation observed a freed record, any
// record was freed twice, reclamation counters are inconsistent, or an
// operation on a thread-private key returned the wrong answer.
//
// Three of every four operations hit the shared key range (maximum retire /
// reuse contention); the fourth hits the thread's private range, where the
// linearized outcome is deterministic and checked against a local model.
func StressSet(t *testing.T, factory SetFactory, opts SetStressOptions) {
	t.Helper()
	if opts.Threads <= 0 {
		opts = DefaultSetStressOptions()
	}
	su := factory(opts.Threads)
	if su.AcquireWorker == nil {
		t.Fatal("SetFactory returned no AcquireWorker")
	}

	var semanticFailures atomic.Int64
	totalOps := runStress(t, opts.Threads, opts.Duration, func(tid int, stop *atomic.Bool, done *atomic.Int64) {
		rng := rand.New(rand.NewSource(int64(tid)*104729 + 17))
		w := su.AcquireWorker()
		defer w.Release()
		// Private keys live above the shared range, in per-thread bands.
		privBase := opts.KeyRange + int64(tid)*opts.PrivateKeys
		model := make([]bool, opts.PrivateKeys)
		ops := int64(0)
		for !stop.Load() {
			if opts.PrivateKeys > 0 && ops%4 == 3 {
				k := rng.Int63n(opts.PrivateKeys)
				key := privBase + k
				switch rng.Intn(3) {
				case 0:
					if w.Insert(key) == model[k] {
						// Insert succeeds iff the key was absent.
						semanticFailures.Add(1)
					}
					model[k] = true
				case 1:
					if w.Delete(key) != model[k] {
						semanticFailures.Add(1)
					}
					model[k] = false
				default:
					if w.Contains(key) != model[k] {
						semanticFailures.Add(1)
					}
				}
			} else {
				key := rng.Int63n(opts.KeyRange)
				p := rng.Intn(100)
				switch {
				case p < opts.InsertPct:
					w.Insert(key)
				case p < opts.InsertPct+opts.DeletePct:
					w.Delete(key)
				default:
					w.Contains(key)
				}
			}
			ops++
			done.Store(ops)
		}
	})

	checkSetStress(t, su, semanticFailures.Load(), totalOps)
}

// checkSetStress runs the shared post-stress verification: poison counters,
// semantic model failures, counter sanity, structural validation, and the
// shutdown-drain re-checks (including Retired == Freed when the set demands
// it via RequireDrained).
func checkSetStress(t *testing.T, su SetUnderTest, semanticFailures, totalOps int64) {
	t.Helper()
	if su.Violations != nil {
		if v := su.Violations(); v != 0 {
			t.Fatalf("use-after-free: %d traversal visits observed a freed record", v)
		}
	}
	if su.DoubleFrees != nil {
		if d := su.DoubleFrees(); d != 0 {
			t.Fatalf("%d records were freed more than once", d)
		}
	}
	if s := semanticFailures; s != 0 {
		t.Fatalf("%d operations on thread-private keys returned the wrong answer", s)
	}
	if su.Stats != nil {
		stats := su.Stats()
		if stats.Freed > stats.Retired {
			t.Fatalf("freed (%d) exceeds retired (%d)", stats.Freed, stats.Retired)
		}
		if stats.Limbo < 0 {
			t.Fatalf("negative limbo count: %d", stats.Limbo)
		}
	}
	if totalOps == 0 {
		t.Fatal("stress performed no operations")
	}
	if su.Validate != nil {
		if err := su.Validate(); err != nil {
			t.Fatalf("post-stress validation: %v", err)
		}
	}
	if su.Close != nil {
		su.Close()
		if su.DoubleFrees != nil {
			if d := su.DoubleFrees(); d != 0 {
				t.Fatalf("%d records were freed more than once during shutdown draining", d)
			}
		}
		if su.Stats != nil {
			stats := su.Stats()
			if stats.Freed > stats.Retired {
				t.Fatalf("after close: freed (%d) exceeds retired (%d)", stats.Freed, stats.Retired)
			}
			if su.RequireDrained && stats.Freed != stats.Retired {
				t.Fatalf("after close: retired (%d) != freed (%d); shutdown draining left limbo behind",
					stats.Retired, stats.Freed)
			}
		}
	}
}

// StressSetChurn is the slot-churn variant of StressSet: every worker
// goroutine continually acquires a thread slot, performs a bounded burst of
// operations through it, and releases the slot again (ReleaseHandle returns
// its pool cache), so thread slots are
// constantly vacated, skipped by reclamation scans, and reused by other
// goroutines. The same poison-sink instrumentation as StressSet applies:
// a freed-record observation, a double free, or a wrong answer on a
// goroutine-private key — in particular one caused by state leaking across
// slot reuse — fails the test. After Close, Retired == Freed is asserted
// for sets that demand it (every reclaiming scheme).
func StressSetChurn(t *testing.T, factory SetFactory, opts SetStressOptions) {
	t.Helper()
	if opts.Threads <= 0 {
		opts = DefaultSetStressOptions()
	}
	if opts.OpsPerSlot <= 0 {
		opts.OpsPerSlot = 64
	}
	su := factory(opts.Threads)
	if su.AcquireWorker == nil {
		t.Fatal("SetFactory returned no AcquireWorker")
	}

	var semanticFailures atomic.Int64
	totalOps := runStress(t, opts.Threads, opts.Duration, func(g int, stop *atomic.Bool, done *atomic.Int64) {
		rng := rand.New(rand.NewSource(int64(g)*104729 + 23))
		// Private keys are per-goroutine, not per-slot: the model must
		// stay correct while the goroutine migrates across slots.
		privBase := opts.KeyRange + int64(g)*opts.PrivateKeys
		model := make([]bool, opts.PrivateKeys)
		ops := int64(0)
		for !stop.Load() {
			w := su.AcquireWorker()
			for burst := 0; burst < opts.OpsPerSlot && !stop.Load(); burst++ {
				if opts.PrivateKeys > 0 && ops%4 == 3 {
					k := rng.Int63n(opts.PrivateKeys)
					key := privBase + k
					switch rng.Intn(3) {
					case 0:
						if w.Insert(key) == model[k] {
							semanticFailures.Add(1)
						}
						model[k] = true
					case 1:
						if w.Delete(key) != model[k] {
							semanticFailures.Add(1)
						}
						model[k] = false
					default:
						if w.Contains(key) != model[k] {
							semanticFailures.Add(1)
						}
					}
				} else {
					key := rng.Int63n(opts.KeyRange)
					p := rng.Intn(100)
					switch {
					case p < opts.InsertPct:
						w.Insert(key)
					case p < opts.InsertPct+opts.DeletePct:
						w.Delete(key)
					default:
						w.Contains(key)
					}
				}
				ops++
				done.Store(ops)
			}
			w.Release()
		}
	})

	checkSetStress(t, su, semanticFailures.Load(), totalOps)
}

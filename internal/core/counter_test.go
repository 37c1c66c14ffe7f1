package core

import (
	"sync"
	"testing"
)

func TestCounterSingleWriter(t *testing.T) {
	var c Counter
	if got := c.Load(); got != 0 {
		t.Fatalf("zero Counter loads %d", got)
	}
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("after Inc+Add(41): %d, want 42", got)
	}
	c.Add(-2)
	if got := c.Load(); got != 40 {
		t.Fatalf("after Add(-2): %d, want 40", got)
	}
}

// TestCounterReadersRaceWriter is the Stats() contract under -race: one
// owner Adds while concurrent readers Load. Readers must observe coherent,
// monotonically consistent values and the detector must stay quiet (the
// owner's plain read of its own last store races nothing; the publication is
// an atomic store).
func TestCounterReadersRaceWriter(t *testing.T) {
	var c Counter
	const n = 100000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := c.Load()
				if v < prev || v > n {
					t.Errorf("reader observed %d after %d (max %d)", v, prev, n)
					return
				}
				prev = v
			}
		}()
	}
	for i := 0; i < n; i++ {
		c.Inc()
	}
	close(stop)
	wg.Wait()
	if got := c.Load(); got != n {
		t.Fatalf("final value %d, want %d", got, n)
	}
}

// TestCounterOwnershipMigration models the shutdown drains: the owner
// goroutine counts, is joined, and a drainer continues the same counter —
// single-writer at every instant, handed over across a happens-before edge.
func TestCounterOwnershipMigration(t *testing.T) {
	var c Counter
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Inc()
		}
	}()
	<-done // the join: ownership migrates here
	c.Add(500)
	if got := c.Load(); got != 1500 {
		t.Fatalf("after migration: %d, want 1500", got)
	}
}

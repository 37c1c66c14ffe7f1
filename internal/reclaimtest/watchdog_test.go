package reclaimtest

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSuperviseReportsAStall: a worker that never completes an operation and
// never returns is reported after the limit, by name and with stacks, instead
// of being waited for.
func TestSuperviseReportsAStall(t *testing.T) {
	var stop atomic.Bool
	cells := make([]progress, 2)
	cells[0].ops.Store(7) // a worker that ran and then stopped moving
	release := make(chan struct{})
	defer close(release)
	go func() { <-release }() // the stuck worker, visible in the stacks
	start := time.Now()
	msg := supervise("TestX/debra+", time.Millisecond, 40*time.Millisecond, &stop, cells, make(chan struct{}))
	if !strings.Contains(msg, "TestX/debra+") || !strings.Contains(msg, "goroutine ") {
		t.Fatalf("stall report lacks the subtest name or the stacks:\n%.300s", msg)
	}
	if !stop.Load() {
		t.Fatal("stop was not raised after the run duration")
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("reported a stall after %v, before the limit", d)
	}
}

// TestSuperviseWaitsWhileWorkersProgress: slow is not stuck.
func TestSuperviseWaitsWhileWorkersProgress(t *testing.T) {
	var stop atomic.Bool
	cells := make([]progress, 1)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < 20; i++ { // 100 ms of work in steps well under the limit
			time.Sleep(5 * time.Millisecond)
			cells[0].ops.Add(1)
		}
	}()
	if msg := supervise(t.Name(), time.Millisecond, 40*time.Millisecond, &stop, cells, finished); msg != "" {
		t.Fatalf("progressing workers reported as stalled:\n%.300s", msg)
	}
}

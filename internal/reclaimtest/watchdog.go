package reclaimtest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// stallLimit is how long a stress may go without any worker completing an
// operation before it is declared hung.
const stallLimit = 30 * time.Second

// progress is one stress worker's completed-operation count, padded because
// the worker bumps it on every operation.
type progress struct {
	ops atomic.Int64
	_   [core.PadBytes]byte
}

// runStress starts one goroutine per worker, lets them run for d, raises stop
// and waits for them to return; it returns the number of operations they
// completed. Each worker publishes its count in done after every operation;
// when no count moves for stallLimit while a worker is still running — a
// livelocked operation never sees stop — the package is failed at once, by a
// panic that names the subtest and carries every goroutine's stack. Without
// it a hang holds `go test` until the package timeout, whose panic does not
// say which scheme was running.
func runStress(t *testing.T, workers int, d time.Duration, body func(worker int, stop *atomic.Bool, done *atomic.Int64)) int64 {
	t.Helper()
	var stop atomic.Bool
	cells := make([]progress, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, &stop, &cells[w].ops)
		}(w)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	if msg := supervise(t.Name(), d, stallLimit, &stop, cells, finished); msg != "" {
		panic(msg)
	}
	return completed(cells)
}

// completed sums the workers' operation counts.
func completed(cells []progress) (n int64) {
	for i := range cells {
		n += cells[i].ops.Load()
	}
	return n
}

// supervise is runStress's wait: it returns "" once finished is closed, or the
// failure message when the workers made no progress for limit.
func supervise(name string, d, limit time.Duration, stop *atomic.Bool, cells []progress, finished <-chan struct{}) string {
	raise := time.After(d)
	tick := time.NewTicker(min(limit/4, time.Second))
	defer tick.Stop()
	last, moved := completed(cells), time.Now()
	for {
		select {
		case <-finished:
			return ""
		case <-raise:
			stop.Store(true)
		case now := <-tick.C:
			if n := completed(cells); n != last {
				last, moved = n, now
			} else if now.Sub(moved) >= limit {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				return fmt.Sprintf("reclaimtest: %s: no worker completed an operation for %v (livelock?)\n\n%s", name, limit, buf)
			}
		}
	}
}

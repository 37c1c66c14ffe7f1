// Package neutralize simulates the operating-system facilities DEBRA+ relies
// on: POSIX signals (pthread_kill + a signal handler) and non-local goto
// (sigsetjmp/siglongjmp).
//
// In the paper, a process p that cannot advance the epoch because process q
// has been non-quiescent for too long "neutralizes" q by sending it a
// signal. The OS guarantees that the next step q takes executes its signal
// handler; the handler sees that q is non-quiescent, enters the quiescent
// state, and performs siglongjmp into recovery code.
//
// Go has neither per-goroutine signals nor setjmp, so this package provides
// the closest equivalents:
//
//   - a Domain holds one signal word per thread. Signal(target) increments
//     the target's word ("pthread_kill");
//   - the target observes the signal at its next checkpoint (Pending /
//     Consume). Checkpoints are embedded in the reclaimer calls the data
//     structure body already performs (LeaveQstate, RProtect, EnterQstate,
//     and an explicit Checkpoint per search-loop iteration);
//   - delivery is a typed panic (Neutralized) thrown by the DEBRA+
//     reclaimer; the operation wrapper recovers it and runs recovery code —
//     the analogue of siglongjmp back to the sigsetjmp point.
//
// The weaker delivery guarantee ("next checkpoint" instead of "next step")
// is compensated for at the protocol level; see the DEBRA+ package
// (internal/reclaim/debraplus) for the safety argument.
package neutralize

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// Domain is a set of per-thread signal words. A Domain is shared by every
// reclaimer and data structure participating in neutralization for a fixed
// set of n threads.
type Domain struct {
	slots []slot
	sent  atomic.Int64
}

type slot struct {
	// sent counts signals sent to this thread; consumed counts signals the
	// thread has observed. sent > consumed means a signal is pending.
	sent     atomic.Int64
	consumed atomic.Int64
	_        [core.PadBytes]byte
}

// NewDomain creates a signalling domain for n threads.
func NewDomain(n int) *Domain {
	if n <= 0 {
		panic("neutralize: NewDomain requires n >= 1")
	}
	return &Domain{slots: make([]slot, n)}
}

// Signal sends a neutralization signal to target (the analogue of
// pthread_kill). It never blocks and always succeeds; the return value
// mirrors pthread_kill's success for symmetry with the paper's pseudocode.
func (d *Domain) Signal(target int) bool {
	d.slots[target].sent.Add(1)
	d.sent.Add(1)
	return true
}

// Pending reports whether thread tid has an undelivered signal.
func (d *Domain) Pending(tid int) bool {
	s := &d.slots[tid]
	return s.sent.Load() > s.consumed.Load()
}

// Consume marks every signal sent to tid so far as delivered and reports
// whether there was at least one pending. It is called by the signal-handler
// analogue in the DEBRA+ reclaimer.
func (d *Domain) Consume(tid int) bool {
	s := &d.slots[tid]
	sent := s.sent.Load()
	if sent <= s.consumed.Load() {
		return false
	}
	s.consumed.Store(sent)
	return true
}

// SignalsSent returns the total number of signals sent in the domain.
func (d *Domain) SignalsSent() int64 { return d.sent.Load() }

// Neutralized is the value thrown (via panic) when a pending signal is
// delivered to a non-quiescent thread. Operation wrappers recover it and
// run recovery code; any other panic value is re-thrown.
type Neutralized struct {
	// Tid is the thread that was neutralized.
	Tid int
}

// Error implements the error interface so recovered values can be wrapped
// and inspected with errors.As if callers prefer error plumbing to
// panic/recover.
func (n Neutralized) Error() string {
	return fmt.Sprintf("thread %d neutralized", n.Tid)
}

// Recover converts a recover() result into (*Neutralized, true) when the
// panic was a neutralization, and re-panics for anything else. A nil input
// returns (nil, false).
func Recover(v any) (Neutralized, bool) {
	if v == nil {
		return Neutralized{}, false
	}
	if n, ok := v.(Neutralized); ok {
		return n, true
	}
	panic(v)
}

// RUnprotector is the slice of a thread handle recovery needs (satisfied by
// core.ThreadHandle and core.ReclaimerHandle).
type RUnprotector interface {
	RUnprotectAll()
}

// OnNeutralized is the shared recovery wrapper for operation bodies. It must
// be deferred directly (so its recover sees the body's panic):
//
//	defer neutralize.OnNeutralized(h, func(neutralize.Neutralized) {
//		// inspect locals captured before the panic point, set the
//		// body's named results
//	})
//
// A neutralization panic runs fn — which must only inspect local state, the
// thread is quiescent — and then releases the thread's recovery
// protections; any other panic is re-thrown, and a normal return does
// nothing.
func OnNeutralized(h RUnprotector, fn func(Neutralized)) {
	v := recover()
	if v == nil {
		return
	}
	n, ok := Recover(v) // re-panics non-neutralization values
	if !ok {
		return
	}
	fn(n)
	h.RUnprotectAll()
}

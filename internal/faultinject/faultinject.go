// Package faultinject is the deterministic fault plane of the reclamation
// stack: it injects stalls and crashes at the reclaimer operation boundaries
// (the ReclaimerHandle surface) of a chosen thread, at a chosen operation
// count, so the paper's central claim — a stalled or crashed thread wedges
// epoch-based reclamation forever, while neutralizing and pointer-based
// schemes degrade gracefully — becomes something the repository measures and
// gates instead of asserts.
//
// The pieces:
//
//   - a Plan holds per-tid Triggers. Arm freezes it; from then on every
//     armed injection point crossing is counted and, when a trigger's
//     schedule says so, fired. Firing either sleeps (Trigger.Hold, a timed
//     stall) or parks the thread on a gate until Release/Close (a "crash"
//     abandoning the slot mid-operation — the paper's failed process).
//   - Wrap (wrap.go) interposes a Plan on any core.Reclaimer, injecting at
//     the three operation boundaries that matter for reclamation: right
//     after LeaveQstate (stalled while pinned, announcement live), right
//     before EnterQstate (stalled before unpin), and before Retire (stalled
//     retirer). recordmgr.Config.FaultPlan threads it through Build.
//   - Probe (probe.go) measures ManagerStats.Unreclaimed growth with and
//     without a stalled thread and classifies the scheme as bounded or
//     unbounded-growth — the paper's Figure-style robustness result as a
//     testable predicate.
//
// Schedules are explicit (tid, point, operation count) or derived from a
// seed (AddChaos), so every run replays exactly: the fault plane adds no
// wall-clock or scheduler nondeterminism of its own beyond the sleeps it is
// told to inject.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Point identifies a reclaimer operation boundary a Trigger fires at.
type Point int

// Injection points, in the order a data structure operation crosses them.
const (
	// PointPinned fires right after LeaveQstate returns: the thread holds a
	// live epoch announcement (or, for HP, has merely started an operation).
	// A stall here is the paper's adversary — a preempted thread pinning the
	// epoch while every other thread keeps retiring.
	PointPinned Point = iota
	// PointBeforeUnpin fires at EnterQstate, before the announcement is
	// withdrawn: the thread finished its operation but never got to quiesce.
	PointBeforeUnpin
	// PointRetire fires before each Retire hand-off, ahead of the pin an
	// epoch scheme's Retire takes for a quiescent thread: it stalls the
	// thread's retire path itself, with the announcement the caller
	// already holds (none, for a quiescent postamble).
	PointRetire
)

// String names the point for diagnostics.
func (p Point) String() string {
	switch p {
	case PointPinned:
		return "pinned"
	case PointBeforeUnpin:
		return "before-unpin"
	case PointRetire:
		return "retire"
	default:
		return fmt.Sprintf("Point(%d)", int(p))
	}
}

// Trigger describes one injection: which thread, which boundary, when, and
// what kind of fault.
type Trigger struct {
	// Tid is the dense thread id the trigger arms (workers 0..Threads-1).
	Tid int
	// Point is the operation boundary the trigger fires at.
	Point Point
	// AfterOps is the number of Point crossings by Tid to let pass before
	// the first firing (0 = fire at the first crossing).
	AfterOps int64
	// Every, when > 0, re-fires the trigger every Every crossings after the
	// first; 0 fires exactly once. Only valid for timed stalls (Hold > 0):
	// a gate can park a thread once, not repeatedly.
	Every int64
	// Hold is the stall duration. Hold > 0 sleeps the thread at the
	// boundary and lets it continue (a timed stall — the delayed thread of
	// the paper's motivation). Hold == 0 parks the thread on a gate until
	// Armed.Release, Plan.ReleaseAll or Plan.Close: a permanent "crash"
	// that abandons the slot mid-operation, announcement and all.
	Hold time.Duration
}

// Armed is a Trigger registered with a Plan: the handle tests and probes use
// to steer and observe it. All methods are safe from any goroutine.
type Armed struct {
	t    Trigger
	plan *Plan

	enabled atomic.Bool
	// seen counts Point crossings by the trigger's tid; fired counts
	// firings. Both are written only by the owning tid (single-writer
	// cells), read from anywhere.
	seen  core.Counter
	fired core.Counter

	// entered is closed when a goroutine parks on the gate; release is
	// closed to let it go. Gated (Hold == 0) triggers only.
	entered     chan struct{}
	release     chan struct{}
	enterOnce   sync.Once
	releaseOnce sync.Once
}

// Trigger returns the schedule the handle was armed with.
func (a *Armed) Trigger() Trigger { return a.t }

// Enable lets the trigger fire. Triggers start enabled unless added with
// Plan.AddDisabled; probes flip them on between measurement phases.
func (a *Armed) Enable() { a.enabled.Store(true) }

// Enabled reports whether the trigger currently fires.
func (a *Armed) Enabled() bool { return a.enabled.Load() }

// Crossings returns how many times the trigger's (tid, point) boundary has
// been crossed since Arm.
func (a *Armed) Crossings() int64 { return a.seen.Load() }

// Fired returns how many times the trigger has fired.
func (a *Armed) Fired() int64 { return a.fired.Load() }

// Stalled reports whether a goroutine is currently parked (or has ever
// parked) on the trigger's gate.
func (a *Armed) Stalled() bool {
	select {
	case <-a.entered:
		return true
	default:
		return false
	}
}

// AwaitStall blocks until a goroutine parks on the trigger's gate, or until
// timeout. It reports whether the stall was observed.
func (a *Armed) AwaitStall(timeout time.Duration) bool {
	select {
	case <-a.entered:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Release opens the trigger's gate, letting a parked thread continue (it
// resumes mid-operation, exactly where it stalled). Idempotent; a released
// gate never parks again.
func (a *Armed) Release() {
	a.releaseOnce.Do(func() { close(a.release) })
}

// fire performs the trigger's fault on the calling (owning) tid.
func (a *Armed) fire() {
	a.fired.Inc()
	if a.t.Hold > 0 {
		time.Sleep(a.t.Hold)
		return
	}
	a.enterOnce.Do(func() { close(a.entered) })
	<-a.release
}

// PlanStats aggregates a plan's activity counters.
type PlanStats struct {
	// Triggers is the number of armed triggers.
	Triggers int
	// Fired is the total firing count over all triggers.
	Fired int64
	// Parked is the number of gated triggers a thread has parked on.
	Parked int
}

// Plan is a set of armed triggers plus the arming state machine. Build one
// with NewPlan, register triggers with Add/AddDisabled (or AddChaos), hand
// it to recordmgr.Config.FaultPlan (or Wrap directly), then Arm it. Hooks
// are free no-ops until Arm and after Close.
type Plan struct {
	mu    sync.Mutex
	byTid map[int][]*Armed
	all   []*Armed
	// armed gates the hook fast path; its Store in Arm publishes the frozen
	// byTid map to the hook's Load.
	armed  atomic.Bool
	closed atomic.Bool
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{byTid: make(map[int][]*Armed)}
}

// Add registers t and returns its handle, enabled. It panics after Arm (the
// trigger map is frozen then — determinism depends on it) and on an invalid
// schedule (Every with a gated trigger, negative fields).
func (p *Plan) Add(t Trigger) *Armed {
	a := p.add(t)
	a.enabled.Store(true)
	return a
}

// AddDisabled registers t disabled; Armed.Enable arms it later (probes
// enable their stall between measurement phases).
func (p *Plan) AddDisabled(t Trigger) *Armed {
	return p.add(t)
}

func (p *Plan) add(t Trigger) *Armed {
	if t.Tid < 0 || t.AfterOps < 0 || t.Every < 0 || t.Hold < 0 {
		panic(fmt.Sprintf("faultinject: invalid trigger %+v", t))
	}
	if t.Every > 0 && t.Hold == 0 {
		panic("faultinject: a gated (Hold == 0) trigger cannot repeat (Every > 0); a gate parks a thread once")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.armed.Load() {
		panic("faultinject: Add after Arm (the trigger map is frozen)")
	}
	a := &Armed{
		t:       t,
		plan:    p,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	p.byTid[t.Tid] = append(p.byTid[t.Tid], a)
	p.all = append(p.all, a)
	return a
}

// Arm freezes the trigger map and activates the hooks. Idempotent; a plan
// with no triggers may be armed (every hook is then a cheap map miss).
func (p *Plan) Arm() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed.Store(true)
}

// Armed reports whether Arm has run (and Close has not).
func (p *Plan) Armed() bool { return p.armed.Load() && !p.closed.Load() }

// ReleaseAll opens every gate, letting every parked thread continue. The
// plan stays armed: timed stalls keep firing.
func (p *Plan) ReleaseAll() {
	p.mu.Lock()
	all := p.all
	p.mu.Unlock()
	for _, a := range all {
		a.Release()
	}
}

// Close deactivates every hook and opens every gate. A closed plan injects
// nothing; call it before closing the Record Manager, so shutdown's flush
// and drain paths run fault-free and parked victims can quiesce (DrainLimbo
// verifies every participant's quiescence and would panic on a thread still
// parked inside an operation). Idempotent.
func (p *Plan) Close() {
	p.closed.Store(true)
	p.ReleaseAll()
}

// Stats returns the plan's aggregate activity counters.
func (p *Plan) Stats() PlanStats {
	p.mu.Lock()
	all := p.all
	p.mu.Unlock()
	st := PlanStats{Triggers: len(all)}
	for _, a := range all {
		st.Fired += a.Fired()
		if a.Stalled() {
			st.Parked++
		}
	}
	return st
}

// hook is the injection-point crossing, called by the wrapping reclaimer on
// the owning tid. Disarmed or closed plans return immediately; otherwise the
// tid's triggers at point are counted and fired per their schedules.
func (p *Plan) hook(tid int, point Point) {
	if !p.armed.Load() || p.closed.Load() {
		return
	}
	// byTid is frozen by Arm; the armed.Load above acquired its publication.
	for _, a := range p.byTid[tid] {
		if a.t.Point != point {
			continue
		}
		a.seen.Inc()
		if !a.enabled.Load() {
			continue
		}
		n := a.seen.Load()
		if n <= a.t.AfterOps {
			continue
		}
		if a.t.Every == 0 {
			// One-shot: the first enabled crossing past AfterOps fires, even
			// when earlier crossings passed while the trigger was disabled
			// (probes enable their stall between measurement phases).
			if a.fired.Load() == 0 {
				a.fire()
			}
		} else if (n-a.t.AfterOps-1)%a.t.Every == 0 {
			a.fire()
		}
	}
}

// ChaosConfig derives a deterministic chaos schedule from a seed: each tid
// gets one repeating timed stall at a pseudo-randomly chosen boundary, phase
// and period, so a whole worker population experiences scattered delays that
// replay exactly under the same seed.
type ChaosConfig struct {
	// Seed seeds the schedule derivation (0 is treated as 1).
	Seed int64
	// Tids are the threads to afflict.
	Tids []int
	// MeanEvery is the mean number of crossings between stalls per tid
	// (each tid's period is drawn from [MeanEvery/2, 3*MeanEvery/2];
	// default 512).
	MeanEvery int64
	// Hold is the maximum stall duration (each tid's hold is drawn from
	// [Hold/2, Hold]; default 1ms).
	Hold time.Duration
	// Points are the candidate boundaries (default: all three).
	Points []Point
}

// AddChaos registers the derived schedule on p and returns the trigger
// handles, enabled. Same seed, tids and knobs ⇒ same schedule.
func AddChaos(p *Plan, cfg ChaosConfig) []*Armed {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MeanEvery <= 0 {
		cfg.MeanEvery = 512
	}
	if cfg.Hold <= 0 {
		cfg.Hold = time.Millisecond
	}
	points := cfg.Points
	if len(points) == 0 {
		points = []Point{PointPinned, PointBeforeUnpin, PointRetire}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]*Armed, 0, len(cfg.Tids))
	for _, tid := range cfg.Tids {
		every := cfg.MeanEvery/2 + rng.Int63n(cfg.MeanEvery) + 1
		hold := cfg.Hold/2 + time.Duration(rng.Int63n(int64(cfg.Hold)/2+1))
		out = append(out, p.Add(Trigger{
			Tid:      tid,
			Point:    points[rng.Intn(len(points))],
			AfterOps: rng.Int63n(every),
			Every:    every,
			Hold:     hold,
		}))
	}
	return out
}

package faultinject

// This file is the bounded-unreclaimed probe: the paper's robustness figure
// as a predicate. It measures ManagerStats.Unreclaimed growth per operation
// twice — once with every worker live, once with a subset parked while
// pinned — and classifies the scheme by the *stall-induced* slope delta.
// The delta is what separates the schemes cleanly: the leaking baseline
// grows at ~1 record/op with or without the stall (stall-indifferent ⇒
// bounded in the paper's sense: a crashed thread changes nothing), the
// epoch schemes go from ~0 to ~1 (every retire parks behind the stalled
// announcement forever), and DEBRA+ (neutralizing the laggard) and HP
// (never blocking on laggards) stay near zero on both sides.

import (
	"sync"

	"repro/internal/core"
	"repro/internal/neutralize"
)

// DefaultBoundSlack is the classification threshold on the stall-induced
// Unreclaimed slope delta, in records per operation: the unbounded schemes
// sit near 1.0 (every retired record parks forever), the bounded ones near
// 0.0 (transient plateaus only), so the midpoint separates them with wide
// margins on both sides.
const DefaultBoundSlack = 0.5

// ProbeConfig tunes Probe.
type ProbeConfig struct {
	// Workers is the number of worker tids driven (0..Workers-1); the
	// manager must have at least that many worker slots. Default 4.
	Workers int
	// OpsPerWorker is each live worker's operation count per measurement
	// phase. It must be large enough for the scheme's amortized machinery
	// (epoch advances, DEBRA+'s suspicion threshold) to engage; default
	// 4000.
	OpsPerWorker int
	// BoundSlack overrides DefaultBoundSlack when > 0.
	BoundSlack float64
}

// ProbeResult is one scheme's measured robustness classification.
type ProbeResult struct {
	// Scheme is the wrapped reclaimer's name.
	Scheme string
	// Workers and Stalled are the worker count and the number of threads
	// parked during the stalled phase.
	Workers, Stalled int
	// BaselineOps/StalledOps are the completed operations per phase.
	BaselineOps, StalledOps int64
	// BaselineGrowth/StalledGrowth are each phase's ΔUnreclaimed.
	BaselineGrowth, StalledGrowth int64
	// BaselineSlope/StalledSlope are the growth-per-operation slopes; their
	// difference is the stall-induced growth the classification keys on.
	BaselineSlope, StalledSlope float64
	// SlopeDelta is StalledSlope - BaselineSlope.
	SlopeDelta float64
	// Bounded reports SlopeDelta < BoundSlack: a stalled thread does not
	// make unreclaimed memory grow with continued operation.
	Bounded bool
	// MaxUnreclaimed is the largest Unreclaimed sample observed.
	MaxUnreclaimed int64
	// Neutralizations counts the scheme's neutralizations over the whole
	// probe (non-zero only for DEBRA+ with neutralization active).
	Neutralizations int64
}

// NewStallPlan returns a plan with one gated stall-while-pinned trigger per
// tid, disabled (Probe enables them between its phases), plus the handles.
// Wire the plan through recordmgr.Config.FaultPlan when building the
// manager, then hand both to Probe.
func NewStallPlan(stallTids []int) (*Plan, []*Armed) {
	p := NewPlan()
	stalls := make([]*Armed, len(stallTids))
	for i, tid := range stallTids {
		stalls[i] = p.AddDisabled(Trigger{Tid: tid, Point: PointPinned})
	}
	return p, stalls
}

// Probe measures m's Unreclaimed growth with and without the plan's stall
// triggers parked and classifies the scheme (see ProbeResult). The manager
// must have been built over plan (recordmgr.Config.FaultPlan or Wrap) with
// the stall triggers disabled; Probe acquires cfg.Workers handles (the stall
// tids must be among the slots they land on — on a fresh manager, the first
// cfg.Workers slots), arms the plan, runs the baseline phase with every
// worker live, parks the stall tids, runs the stalled phase on the remaining
// workers, then releases and joins the victims — neutralized ones recover
// through the standard neutralize.OnNeutralized path — and releases the
// handles, so the caller can Close the manager normally.
func Probe[T any](m *core.RecordManager[T], plan *Plan, stalls []*Armed, cfg ProbeConfig) ProbeResult {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 4000
	}
	slack := cfg.BoundSlack
	if slack <= 0 {
		slack = DefaultBoundSlack
	}
	if len(stalls) >= cfg.Workers {
		panic("faultinject: Probe needs at least one live (non-stalled) worker")
	}
	plan.Arm()

	stalled := make(map[int]bool, len(stalls))
	for _, a := range stalls {
		stalled[a.Trigger().Tid] = true
	}
	live := make([]*core.ThreadHandle[T], 0, cfg.Workers)
	victims := make([]*core.ThreadHandle[T], 0, len(stalls))
	for i := 0; i < cfg.Workers; i++ {
		if h := m.AcquireHandle(); stalled[h.Tid()] {
			victims = append(victims, h)
		} else {
			live = append(live, h)
		}
	}
	all := append(append([]*core.ThreadHandle[T](nil), live...), victims...)
	defer func() {
		for _, h := range all {
			m.ReleaseHandle(h)
		}
	}()
	if len(victims) != len(stalls) {
		panic("faultinject: Probe: a stall tid is not among the worker slots acquired")
	}

	res := ProbeResult{
		Scheme:  m.Reclaimer().Name(),
		Workers: cfg.Workers,
		Stalled: len(victims),
	}
	neut0 := m.Stats().Reclaimer.Neutralizations

	// Baseline phase: every worker (including the future victims) runs, so
	// the scheme's steady-state plateau — limbo a few epochs deep — is
	// measured and subtracted out by the delta.
	s0 := m.Stats().Unreclaimed
	res.BaselineOps = runPhase(all, cfg.OpsPerWorker)
	s1 := m.Stats().Unreclaimed
	res.BaselineGrowth = s1 - s0
	res.BaselineSlope = float64(res.BaselineGrowth) / float64(res.BaselineOps)

	// Park the victims: each one's first LeaveQstate crosses the enabled
	// gate and blocks while pinned. AwaitStall synchronises the measurement
	// start with every victim actually holding its announcement.
	for _, a := range stalls {
		a.Enable()
	}
	var victimWG sync.WaitGroup
	for _, h := range victims {
		victimWG.Add(1)
		go func(h *core.ThreadHandle[T]) {
			defer victimWG.Done()
			opOnce(h)
		}(h)
	}
	for _, a := range stalls {
		// The gate has no timeout here by design: a victim that never
		// parks would make the phases overlap and the measurement lie.
		<-a.entered
	}

	// Stalled phase: only the live workers run.
	s2 := m.Stats().Unreclaimed
	res.StalledOps = runPhase(live, cfg.OpsPerWorker)
	s3 := m.Stats().Unreclaimed
	res.StalledGrowth = s3 - s2
	res.StalledSlope = float64(res.StalledGrowth) / float64(res.StalledOps)

	// Recovery: open the gates and join the victims. A neutralized victim
	// panics at its next checkpoint and recovers through OnNeutralized in
	// opOnce; either way every thread ends quiescent and the caller's Close
	// (flush → drain → DrainLimbo) runs on a fault-free plan.
	for _, a := range stalls {
		a.Release()
	}
	victimWG.Wait()

	res.SlopeDelta = res.StalledSlope - res.BaselineSlope
	res.Bounded = res.SlopeDelta < slack
	res.MaxUnreclaimed = maxInt64(maxInt64(s0, s1), maxInt64(s2, s3))
	res.Neutralizations = m.Stats().Reclaimer.Neutralizations - neut0
	return res
}

// runPhase runs one measurement phase on hs and returns its operation count:
// n operations per handle concurrently, then n/8 sequential rounds of one
// operation per handle. The concurrent run is the load; the rounds let every
// handle's private limbo catch up before the phase is measured (enough epochs,
// at the schemes' default pacing, for each bag to rotate out). Without them a
// handle that finished its run while another was descheduled by the OS
// mid-operation — itself a stall, and one the baseline must not contain —
// would leave its whole run parked in its bags, as if every one of its
// records were leaked.
func runPhase[T any](hs []*core.ThreadHandle[T], n int) int64 {
	runWorkers(hs, n)
	rounds := n / 8
	for i := 0; i < rounds; i++ {
		for _, h := range hs {
			opOnce(h)
		}
	}
	return int64(len(hs)) * int64(n+rounds)
}

// runWorkers runs n alloc→retire probe operations on each handle concurrently
// and joins them. Each operation absorbs a neutralization delivery the way a
// real data structure would: the retire precedes the delivery point
// (EnterQstate), so a doomed operation loses nothing, and the thread comes
// out quiescent.
func runWorkers[T any](hs []*core.ThreadHandle[T], n int) {
	var wg sync.WaitGroup
	for _, h := range hs {
		wg.Add(1)
		go func(h *core.ThreadHandle[T]) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				opOnce(h)
			}
		}(h)
	}
	wg.Wait()
}

// opOnce is one pin → allocate → retire → unpin round-trip with
// neutralization recovery.
func opOnce[T any](h *core.ThreadHandle[T]) {
	defer neutralize.OnNeutralized(h, func(neutralize.Neutralized) {})
	h.LeaveQstate()
	rec := h.Allocate()
	h.Retire(rec)
	h.EnterQstate()
}

// maxInt64 returns the larger of a and b.
func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

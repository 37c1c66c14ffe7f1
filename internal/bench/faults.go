package bench

// Experiment 11 ("faults"): what a stalled or dead thread costs each scheme.
// The paper's central robustness claim (Section 5) is that DEBRA's epoch
// mechanism is blocked by a single stalled thread while DEBRA+'s
// neutralisation and hazard pointers are not. This experiment measures that
// directly in two panels:
//
//   - A fault-probe panel per stall count: internal/faultinject parks N
//     threads while pinned and samples ManagerStats.Unreclaimed against
//     operations completed by the surviving threads, first without and then
//     with the stall. The reported classification is the slope *delta* —
//     bounded schemes (DEBRA+, HP, and the leaking baseline, which is
//     stall-indifferent by construction) show no stall-induced growth;
//     EBR, QSBR and plain DEBRA grow one unreclaimed record per retire for
//     as long as the victim stays parked.
//
//   - A chaos service panel: the loopback KV service of experiment 9 driven
//     by a load generator that randomly stalls mid-frame and kills its own
//     connections, exercising the server's read/write deadlines, ERR_BUSY
//     fast-fail and slow-peer reaper plus the client's retry/reconnect
//     logic. The trial inherits runServiceTrial's shutdown invariant
//     (Retired == Freed after Close), so surviving chaos is checked, not
//     merely survived.
//
// Fault rows are informational: benchdiff renders them (growth slopes,
// classifications, shed/retry counters) but excludes them from the
// throughput trend gate, since a probe's op count is fixed and a chaos run's
// throughput is policy noise.

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kvload"
	"repro/internal/recordmgr"
)

// DSFaultProbe is the Config.DataStructure name of the stalled-thread
// unreclaimed-growth probe trials.
const DSFaultProbe = "faultprobe"

// ExperimentFaults is the experiment identifier of the fault panels.
const ExperimentFaults = 11

// FaultStallSweep is the stalled-thread counts the probe panels cover. Fixed
// so smoke rows match across machines.
var FaultStallSweep = []int{1, 2}

// FaultProbeOpsPerWorker is the per-phase operation count each live worker
// executes in a probe trial. Fixed rather than duration-scaled so the growth
// slopes are comparable across machines and baseline runs.
const FaultProbeOpsPerWorker = 4000

// Chaos cadences of the service panel: roughly one mid-frame stall per 200
// requests and one self-inflicted connection kill per 400 per connection.
const (
	faultChaosStallEvery = 200
	faultChaosKillEvery  = 400
)

// FaultPanels returns the experiment 11 panels: one fault-probe panel per
// FaultStallSweep entry (thread rows are the sweep entries that leave at
// least one live worker) and one chaos-mode service panel. The fault axes
// (stall count, chaos cadences) live in the Title, like the service axes,
// so pre-fault baseline row identities stay stable.
func FaultPanels(opts Options) []Panel {
	const figure = "Fault injection: stalled threads and service chaos (beyond the paper), Experiment 11"
	var panels []Panel
	for _, stall := range FaultStallSweep {
		var rows []int
		for _, t := range opts.threads() {
			if t > stall {
				rows = append(rows, t)
			}
		}
		if len(rows) == 0 {
			continue
		}
		panels = append(panels, Panel{
			Figure:        figure,
			Title:         fmt.Sprintf("%s alloc-retire stalls=%d", DSFaultProbe, stall),
			DataStructure: DSFaultProbe,
			Workload:      Workload{InsertPct: 50, DeletePct: 50, KeyRange: 1},
			Allocator:     recordmgr.AllocBump,
			UsePool:       true,
			Schemes:       SupportedSchemes(DSFaultProbe),
			Threads:       rows,
			Shards:        opts.Shards,
			Placement:     opts.Placement,
			RetireBatch:   opts.RetireBatch,
			StallThreads:  stall,
		})
	}
	w := withRange(Workload{InsertPct: 25, DeletePct: 25, PrefillFraction: 0.5}, opts.scaleRange(200_000))
	panels = append(panels, Panel{
		Figure: figure,
		Title: fmt.Sprintf("%s-chaos parts=%d burst=%d %s range [0,%d) %di-%dd stall=1/%d kill=1/%d",
			DSService, 2, ServiceBurstSweep[0], kvload.DistZipf, w.KeyRange, w.InsertPct, w.DeletePct,
			faultChaosStallEvery, faultChaosKillEvery),
		DataStructure:   DSService,
		Workload:        w,
		Allocator:       recordmgr.AllocBump,
		UsePool:         true,
		Schemes:         SupportedSchemes(DSService),
		Threads:         opts.threads(),
		Shards:          opts.Shards,
		Placement:       opts.Placement,
		RetireBatch:     opts.RetireBatch,
		Partitions:      2,
		ServiceBurst:    ServiceBurstSweep[0],
		ServiceDist:     kvload.DistZipf,
		ChaosStallEvery: faultChaosStallEvery,
		ChaosKillEvery:  faultChaosKillEvery,
	})
	return panels
}

// faultRecord is the record type the probe trials allocate and retire: the
// two-word node shape of the microbenchmarks.
type faultRecord struct {
	_ [2]int64
}

// runFaultProbeTrial is RunTrial's fault-probe arm: it builds a manager with
// a fault plan interposed (recordmgr.Config.FaultPlan), runs the two-phase
// unreclaimed-growth probe of internal/faultinject with cfg.StallThreads
// victims parked while pinned, and reports the growth slopes and the bounded
// classification. The victims are always the highest tids so the surviving
// workers keep dense low tids.
func runFaultProbeTrial(cfg Config) (Result, error) {
	stall := cfg.StallThreads
	if stall < 1 {
		stall = 1
	}
	if cfg.Threads <= stall {
		return Result{}, fmt.Errorf("bench: fault probe needs Threads > StallThreads, got %d <= %d", cfg.Threads, stall)
	}
	stallTids := make([]int, stall)
	for i := range stallTids {
		stallTids[i] = cfg.Threads - 1 - i
	}
	plan, stalls := faultinject.NewStallPlan(stallTids)
	mcfg := managerConfig(cfg)
	mcfg.FaultPlan = plan
	m, err := recordmgr.Build[faultRecord](mcfg)
	if err != nil {
		plan.Close()
		return Result{}, err
	}
	start := time.Now()
	pres := faultinject.Probe(m, plan, stalls, faultinject.ProbeConfig{
		Workers:      cfg.Threads,
		OpsPerWorker: FaultProbeOpsPerWorker,
	})
	elapsed := time.Since(start)
	// The plan must release its gates and disarm before Close: DrainLimbo
	// requires every thread quiescent, and Probe has already joined them.
	plan.Close()
	st := m.Stats()
	m.Close()
	ops := pres.BaselineOps + pres.StalledOps
	res := Result{
		Config:              cfg,
		Ops:                 ops,
		Throughput:          float64(ops) / elapsed.Seconds(),
		AllocatedBytes:      st.Alloc.AllocatedBytes,
		AllocatedRecords:    st.Alloc.Allocated,
		PoolReused:          st.Pool.Reused,
		Reclaimer:           st.Reclaimer,
		RetirePending:       st.RetirePending,
		Unreclaimed:         st.Unreclaimed,
		Elapsed:             elapsed,
		FaultStalled:        pres.Stalled,
		FaultBaselineSlope:  pres.BaselineSlope,
		FaultStalledSlope:   pres.StalledSlope,
		FaultSlopeDelta:     pres.SlopeDelta,
		FaultBounded:        pres.Bounded,
		FaultMaxUnreclaimed: pres.MaxUnreclaimed,
	}
	res.MopsPerSec = res.Throughput / 1e6
	return res, nil
}

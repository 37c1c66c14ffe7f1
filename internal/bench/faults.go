package bench

// The "faults" experiment: what a stalled thread costs each scheme. The
// paper's central robustness claim (Section 5) is that DEBRA's epoch
// mechanism is blocked by a single stalled thread while DEBRA+'s
// neutralisation and hazard pointers are not. One fault-probe panel per
// stall count measures that directly: internal/faultinject parks N threads
// while pinned and samples ManagerStats.Unreclaimed against operations
// completed by the surviving threads, first without and then with the
// stall. The verdict is the slope *delta* — bounded schemes (DEBRA+, HP, and
// the leaking baseline, which is stall-indifferent by construction) show no
// stall-induced growth; EBR, QSBR and plain DEBRA grow one unreclaimed
// record per retire for as long as the victim stays parked. RenderFaults
// prints that verdict per cell.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/recordmgr"
)

// DSFaultProbe is the Config.DataStructure name of the stalled-thread
// unreclaimed-growth probe trials.
const DSFaultProbe = "faultprobe"

// ExperimentFaults is the experiment identifier of the fault panels.
const ExperimentFaults = 11

// FaultStallSweep is the stalled-thread counts the probe panels cover.
var FaultStallSweep = []int{1, 2}

// FaultProbeOpsPerWorker is the per-phase operation count each live worker
// executes in a probe trial. Fixed rather than duration-scaled so the growth
// slopes are comparable across machines.
const FaultProbeOpsPerWorker = 4000

// FaultPanels returns one fault-probe panel per FaultStallSweep entry; a
// panel's thread rows are the sweep entries that leave at least one live
// worker.
func FaultPanels(opts Options) []Panel {
	const figure = "Stalled threads: bounded unreclaimed memory (Section 5)"
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
			StallThreads:  stall,
		})
	}
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
// victims parked while pinned, and reports the growth slope delta and the
// bounded classification. The victims are always the highest tids so the
// surviving workers keep dense low tids.
func runFaultProbeTrial(cfg Config) (Result, error) {
	stall := max(cfg.StallThreads, 1)
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
		Reclaimer:           st.Reclaimer,
		Unreclaimed:         st.Unreclaimed,
		Elapsed:             elapsed,
		FaultStalled:        pres.Stalled,
		FaultSlopeDelta:     pres.SlopeDelta,
		FaultBounded:        pres.Bounded,
		FaultMaxUnreclaimed: pres.MaxUnreclaimed,
	}
	res.MopsPerSec = res.Throughput / 1e6
	return res, nil
}

// RenderFaults renders the fault panels as one verdict table: a row per
// (stall count, scheme, thread count) cell with the stall-induced
// unreclaimed growth per operation, the largest unreclaimed sample, and
// whether the scheme stayed bounded.
func RenderFaults(results []PanelResult) string {
	var sb strings.Builder
	sb.WriteString("Stalled threads: unreclaimed growth per operation caused by the stall\n")
	fmt.Fprintf(&sb, "%7s %8s %8s %14s %16s  %s\n", "stalls", "scheme", "threads", "slope delta/op", "max unreclaimed", "verdict")
	var errs []error
	for _, pr := range results {
		for _, s := range pr.Panel.Schemes {
			for _, th := range pr.Panel.Threads {
				r, ok := pr.Results[s][th]
				if !ok {
					continue
				}
				verdict := "UNBOUNDED"
				if r.FaultBounded {
					verdict = "bounded"
				}
				fmt.Fprintf(&sb, "%7d %8s %8d %+14.3f %16d  %s\n",
					pr.Panel.StallThreads, s, th, r.FaultSlopeDelta, r.FaultMaxUnreclaimed, verdict)
			}
		}
		errs = append(errs, pr.Errors...)
	}
	writeErrors(&sb, errs)
	return sb.String()
}

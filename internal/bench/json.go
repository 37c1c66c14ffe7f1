package bench

import (
	"encoding/json"
	"runtime"
)

// JSONRow is one measured cell of a panel in the machine-readable report
// consumed by the CI benchmark-smoke job (and any external trend tracking).
type JSONRow struct {
	Figure        string `json:"figure"`
	Title         string `json:"title"`
	DataStructure string `json:"data_structure"`
	Workload      string `json:"workload"`
	Allocator     string `json:"allocator"`
	UsePool       bool   `json:"use_pool"`
	Scheme        string `json:"scheme"`
	Threads       int    `json:"threads"`
	Shards        int    `json:"shards"`
	Placement     string `json:"placement,omitempty"`
	RetireBatch   int    `json:"retire_batch"`
	// ChurnOps is the goroutine-churn cadence: workers released and
	// re-acquired their thread slot every ChurnOps operations (0 = each
	// worker kept its slot for the trial).
	ChurnOps   int     `json:"churn_ops"`
	Ops        int64   `json:"ops"`
	MopsPerSec float64 `json:"mops_per_sec"`
	// NsPerOp is the inverse throughput in nanoseconds per operation. For
	// the hotpath probe rows (experiment 7) this IS the per-op microcost of
	// the measured Record Manager primitive sequence; for data structure
	// rows it is the whole-operation latency at full concurrency.
	NsPerOp        float64 `json:"ns_per_op"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	AllocatedBytes int64   `json:"allocated_bytes"`
	AllocatedRecs  int64   `json:"allocated_records"`
	PoolReused     int64   `json:"pool_reused"`
	Retired        int64   `json:"retired"`
	Freed          int64   `json:"freed"`
	Limbo          int64   `json:"limbo"`
	RetirePending  int64   `json:"retire_pending"`
	// Unreclaimed is the true retired-but-not-freed count at the end of the
	// trial (limbo + retire_pending); limbo alone understates memory held
	// under batching.
	Unreclaimed    int64 `json:"unreclaimed"`
	Neutralization int64 `json:"neutralizations"`
	EpochAdvances  int64 `json:"epoch_advances"`
	Scans          int64 `json:"scans"`
	// ChurnCycles is the number of slot release+acquire cycles performed in
	// the timed phase; ChurnNsPerCycle is their mean latency (0 when the
	// workers kept their slots).
	ChurnCycles     int64   `json:"churn_cycles,omitempty"`
	ChurnNsPerCycle float64 `json:"churn_ns_per_cycle,omitempty"`
	// P50Ns/P99Ns/P999Ns are request-latency quantiles of the service rows
	// (experiment 9), measured end-to-end over loopback TCP; 0 (omitted) for
	// every in-process experiment. The tail columns are the numbers
	// reclamation stalls move and Mops/s averages hide.
	P50Ns  int64 `json:"p50_ns,omitempty"`
	P99Ns  int64 `json:"p99_ns,omitempty"`
	P999Ns int64 `json:"p999_ns,omitempty"`
	// PipelineDepth marks a pipelined service row (experiment 12): the load
	// generator's in-flight window per connection, which is also the server's
	// frames-per-batch cap for the trial. Omitted for lockstep service rows
	// and every in-process experiment. AllocsPerOp is the trial's process-wide
	// heap allocations per completed request (MemStats.Mallocs delta over the
	// measured phase / ops) — server and in-process load generator combined,
	// an upper bound on the server's per-request allocations.
	PipelineDepth int     `json:"pipeline_depth,omitempty"`
	AllocsPerOp   float64 `json:"allocs_per_op,omitempty"`
	// StallThreads marks a fault-probe row (experiment 11): how many threads
	// were parked while pinned during the stalled phase. The slope columns
	// are the probe's Unreclaimed growth per operation without and with the
	// stall; FaultClass is the classification from their delta ("bounded":
	// a stalled thread does not make unreclaimed memory grow with continued
	// operation; "unbounded": it does, as for the paper's EBR/QSBR/DEBRA).
	// All omitted for non-fault rows.
	StallThreads            int     `json:"stall_threads,omitempty"`
	FaultClass              string  `json:"fault_class,omitempty"`
	UnreclaimedSlopeBase    float64 `json:"unreclaimed_slope_base,omitempty"`
	UnreclaimedSlopeStalled float64 `json:"unreclaimed_slope_stalled,omitempty"`
	UnreclaimedSlopeDelta   float64 `json:"unreclaimed_slope_delta,omitempty"`
	FaultMaxUnreclaimed     int64   `json:"fault_max_unreclaimed,omitempty"`
	// Busy/Retries/Reconnects/GaveUp are the load generator's resilience
	// counters of a service row (ERR_BUSY fast-fails absorbed, retry
	// attempts, successful re-dials, connections that exhausted their
	// retries); ChaosStalls and ChaosKills count the chaos injections of a
	// chaos-mode row. All omitted when zero.
	Busy        int64 `json:"busy,omitempty"`
	Retries     int64 `json:"retries,omitempty"`
	Reconnects  int64 `json:"reconnects,omitempty"`
	GaveUp      int64 `json:"gave_up,omitempty"`
	ChaosStalls int64 `json:"chaos_stalls,omitempty"`
	ChaosKills  int64 `json:"chaos_kills,omitempty"`
}

// JSONReport is the top-level machine-readable result document.
type JSONReport struct {
	GOOS     string    `json:"goos"`
	GOARCH   string    `json:"goarch"`
	NumCPU   int       `json:"num_cpu"`
	Rows     []JSONRow `json:"rows"`
	Errors   []string  `json:"errors,omitempty"`
	RowCount int       `json:"row_count"`
}

// BuildJSONReport flattens panel results into a JSONReport.
func BuildJSONReport(results []PanelResult) JSONReport {
	rep := JSONReport{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	for _, pr := range results {
		for _, scheme := range pr.Panel.Schemes {
			for _, threads := range pr.Panel.Threads {
				r, ok := pr.Results[scheme][threads]
				if !ok {
					continue
				}
				nsPerOp := 0.0
				if r.MopsPerSec > 0 {
					nsPerOp = 1e3 / r.MopsPerSec
				}
				churnNsPerCycle := 0.0
				if r.ChurnCycles > 0 {
					churnNsPerCycle = float64(r.ChurnNs) / float64(r.ChurnCycles)
				}
				faultClass := ""
				if r.Config.DataStructure == DSFaultProbe {
					faultClass = "unbounded"
					if r.FaultBounded {
						faultClass = "bounded"
					}
				}
				rep.Rows = append(rep.Rows, JSONRow{
					Figure:                  pr.Panel.Figure,
					Title:                   pr.Panel.Title,
					DataStructure:           pr.Panel.DataStructure,
					Workload:                pr.Panel.Workload.String(),
					Allocator:               allocName(pr.Panel.Allocator),
					UsePool:                 pr.Panel.UsePool,
					Scheme:                  scheme,
					Threads:                 threads,
					Shards:                  r.Config.Shards,
					Placement:               r.Config.Placement,
					RetireBatch:             r.Config.RetireBatch,
					ChurnOps:                r.Config.ChurnOps,
					Ops:                     r.Ops,
					MopsPerSec:              r.MopsPerSec,
					NsPerOp:                 nsPerOp,
					ElapsedSeconds:          r.Elapsed.Seconds(),
					AllocatedBytes:          r.AllocatedBytes,
					AllocatedRecs:           r.AllocatedRecords,
					PoolReused:              r.PoolReused,
					Retired:                 r.Reclaimer.Retired,
					Freed:                   r.Reclaimer.Freed,
					Limbo:                   r.Reclaimer.Limbo,
					RetirePending:           r.RetirePending,
					Unreclaimed:             r.Unreclaimed,
					Neutralization:          r.Reclaimer.Neutralizations,
					EpochAdvances:           r.Reclaimer.EpochAdvances,
					Scans:                   r.Reclaimer.Scans,
					ChurnCycles:             r.ChurnCycles,
					ChurnNsPerCycle:         churnNsPerCycle,
					P50Ns:                   r.P50Ns,
					P99Ns:                   r.P99Ns,
					P999Ns:                  r.P999Ns,
					PipelineDepth:           r.Config.PipelineDepth,
					AllocsPerOp:             r.AllocsPerOp,
					StallThreads:            r.FaultStalled,
					FaultClass:              faultClass,
					UnreclaimedSlopeBase:    r.FaultBaselineSlope,
					UnreclaimedSlopeStalled: r.FaultStalledSlope,
					UnreclaimedSlopeDelta:   r.FaultSlopeDelta,
					FaultMaxUnreclaimed:     r.FaultMaxUnreclaimed,
					Busy:                    r.ServiceBusy,
					Retries:                 r.ServiceRetries,
					Reconnects:              r.ServiceReconnects,
					GaveUp:                  r.ServiceGaveUp,
					ChaosStalls:             r.ChaosStalls,
					ChaosKills:              r.ChaosKills,
				})
			}
		}
		for _, err := range pr.Errors {
			rep.Errors = append(rep.Errors, err.Error())
		}
	}
	rep.RowCount = len(rep.Rows)
	return rep
}

// Render renders the report as an indented JSON document.
func (r JSONReport) Render() (string, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// RenderJSON renders panel results as an indented JSON document.
func RenderJSON(results []PanelResult) (string, error) {
	return BuildJSONReport(results).Render()
}

package bench

// Experiment 12 ("pipeline"): the batched request path measured end-to-end.
// The service shapes of experiment 9 are repeated at a sweep of pipeline
// depths — the load generator keeps N requests in flight per connection and
// the server executes every buffered frame as one batch under a single slot
// acquisition, answering with a single write. Depth 1 is the lockstep
// baseline (the experiment-9 discipline through the same panels), so the
// depth-64 / depth-1 ratio of a column is the amortisation win of batching:
// fewer syscalls, slot acquisitions and handle resolutions per request. The
// allocs_per_op column tracks the zero-alloc steady state of the server's
// GET/PUT path; pipelining is exactly the regime where a per-request
// allocation would dominate, because everything else got cheaper.
//
// Like every service trial, a pipelined trial hard-fails if a reclaiming
// scheme exits with Retired != Freed — batching must not change where
// retired records end up.

import (
	"fmt"

	"repro/internal/kvload"
	"repro/internal/recordmgr"
)

// ExperimentPipeline is the experiment identifier of the pipelined service
// panels.
const ExperimentPipeline = 12

// PipelineDepthSweep is the in-flight window sizes the pipeline panels cover:
// the lockstep baseline, a mild window and a deep one. Fixed rather than
// machine-derived so smoke rows match across machines for the trend gate.
var PipelineDepthSweep = []int{1, 8, 64}

// PipelinePanels returns the pipelined KV service panels: both experiment-9
// service shapes repeated at every depth of PipelineDepthSweep, all schemes
// as columns and connection counts as rows. The depth lives in the Title —
// like the other service axes it is deliberately NOT part of the trend
// gate's row identity, so every pre-pipeline baseline row's key stays
// stable.
func PipelinePanels(opts Options) []Panel {
	const figure = "Pipelined KV service over loopback TCP (beyond the paper), Experiment 12"
	type shape struct {
		partitions int
		burst      int
		dist       string
		mix        Workload
		keyRange   int64
	}
	shapes := []shape{
		{2, ServiceBurstSweep[0], kvload.DistZipf, Workload{InsertPct: 10, DeletePct: 10, PrefillFraction: 0.5}, 2_000_000},
		{4, ServiceBurstSweep[1], kvload.DistUniform, Workload{InsertPct: 25, DeletePct: 25, PrefillFraction: 0.5}, 2_000_000},
	}
	var panels []Panel
	for _, sh := range shapes {
		w := withRange(sh.mix, opts.scaleRange(sh.keyRange))
		for _, depth := range PipelineDepthSweep {
			panels = append(panels, Panel{
				Figure: figure,
				Title: fmt.Sprintf("%s parts=%d burst=%d %s range [0,%d) %di-%dd pipe=%d",
					DSService, sh.partitions, sh.burst, sh.dist, w.KeyRange, w.InsertPct, w.DeletePct, depth),
				DataStructure: DSService,
				Workload:      w,
				Allocator:     recordmgr.AllocBump,
				UsePool:       true,
				Schemes:       SupportedSchemes(DSService),
				Threads:       opts.threads(),
				Shards:        opts.Shards,
				Placement:     opts.Placement,
				RetireBatch:   opts.RetireBatch,
				Partitions:    sh.partitions,
				ServiceBurst:  sh.burst,
				ServiceDist:   sh.dist,
				PipelineDepth: depth,
			})
		}
	}
	return panels
}

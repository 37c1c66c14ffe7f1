package bench

// Experiment 9 ("service"): the whole stack measured as a network service.
// Each trial starts an in-process kvservice server (the same code path as
// cmd/kvserver) on a loopback port, drives it with kvload over real TCP
// connections — one connection per "thread" of the trial — and reports
// throughput plus p50/p99/p999 latency quantiles. The tail quantiles are the
// point: Mops/s panels average reclamation stalls away, while a p999 column
// shows exactly what a grace-period stall costs the requests that hit it.
// Every connection lives the burst contract (acquire handles, serve
// ServiceBurst requests, release), so the trial also exercises the dynamic
// slot registry the way a real front-end does.
//
// The trial fails — not merely reports — if the server's shutdown invariant
// Retired == Freed does not hold after Close for a reclaiming scheme, so the
// smoke run doubles as a lifecycle check on the whole service stack.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kvload"
	"repro/internal/kvservice"
	"repro/internal/recordmgr"
)

// DSService is the Config.DataStructure name of the service trials.
const DSService = "service"

// ExperimentService is the experiment identifier of the service panels.
const ExperimentService = 9

// ServiceBurstSweep is the per-slot-hold request counts the service panels
// cover: a hot cadence (release every 64 requests) and a mild one. Fixed
// rather than machine-derived so smoke rows match across machines for the
// trend gate.
var ServiceBurstSweep = []int{64, 512}

// ServicePanels returns the KV service panels: closed-loop load against an
// in-process kvserver over loopback TCP, one panel per (partition count,
// burst, key distribution) shape, all six schemes as columns and connection
// counts as rows. The read-heavy zipfian shape is the realistic cache
// profile; the update-heavy uniform shape maximises retire pressure so the
// scheme differences (and the p999 stalls) have somewhere to show up.
func ServicePanels(opts Options) []Panel {
	const figure = "KV service over loopback TCP (beyond the paper), Experiment 9"
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
		panels = append(panels, Panel{
			Figure: figure,
			// The service axes (partitions, burst, distribution) live in the
			// Title: rowKey identities stay stable for every pre-service
			// baseline row, and the axes still disambiguate the new cells.
			Title: fmt.Sprintf("%s parts=%d burst=%d %s range [0,%d) %di-%dd",
				DSService, sh.partitions, sh.burst, sh.dist, w.KeyRange, w.InsertPct, w.DeletePct),
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
		})
	}
	return panels
}

// runServiceTrial is RunTrial's service arm: an in-process server, a load
// run, a clean shutdown, and the shutdown invariant checked.
func runServiceTrial(cfg Config) (Result, error) {
	partitions := cfg.Partitions
	if partitions == 0 {
		partitions = 1
	}
	srv, err := kvservice.New(kvservice.Config{
		Scheme:         cfg.Scheme,
		Partitions:     partitions,
		MaxConns:       cfg.Threads,
		Burst:          cfg.ServiceBurst,
		PipelineDepth:  cfg.PipelineDepth,
		UsePool:        cfg.UsePool,
		Shards:         cfg.Shards,
		Placement:      core.ShardPlacement(cfg.Placement),
		RetireBatch:    cfg.RetireBatch,
		InitialBuckets: cfg.InitialBuckets,
	})
	if err != nil {
		return Result{}, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	dist := cfg.ServiceDist
	if dist == "" {
		dist = kvload.DistZipf
	}
	readPct := 100 - cfg.Workload.InsertPct - cfg.Workload.DeletePct
	lres, lerr := kvload.Run(kvload.Config{
		Addr:            addr.String(),
		Conns:           cfg.Threads,
		Duration:        cfg.Duration,
		Keys:            cfg.Workload.KeyRange,
		Dist:            dist,
		ReadPct:         readPct,
		DelPct:          cfg.Workload.DeletePct,
		Pipeline:        cfg.PipelineDepth,
		Seed:            cfg.Seed,
		Prefill:         int64(float64(cfg.Workload.KeyRange) * cfg.Workload.PrefillFraction),
		ChaosStallEvery: cfg.ChaosStallEvery,
		ChaosKillEvery:  cfg.ChaosKillEvery,
	})
	srv.Close()
	if lerr != nil {
		return Result{}, lerr
	}
	snap := srv.Stats()
	m := snap.Manager
	if cfg.Scheme != recordmgr.SchemeNone && (m.Retired != m.Freed || m.Unreclaimed != 0) {
		return Result{}, fmt.Errorf("bench: service shutdown invariant violated: Retired=%d Freed=%d Unreclaimed=%d", m.Retired, m.Freed, m.Unreclaimed)
	}
	res := Result{
		Config:            cfg,
		Ops:               lres.Ops,
		Throughput:        lres.Throughput(),
		AllocatedBytes:    m.AllocatedBytes,
		AllocatedRecords:  m.Allocated,
		PoolReused:        m.PoolReused,
		Unreclaimed:       m.Unreclaimed,
		Elapsed:           lres.Elapsed,
		P50Ns:             int64(lres.P50()),
		P99Ns:             int64(lres.P99()),
		P999Ns:            int64(lres.P999()),
		ServiceBusy:       lres.Busy,
		ServiceRetries:    lres.Retries,
		ServiceReconnects: lres.Reconnects,
		ServiceGaveUp:     lres.GaveUp,
		ChaosStalls:       lres.ChaosStalls,
		ChaosKills:        lres.ChaosKills,
	}
	if lres.Ops > 0 {
		res.AllocsPerOp = float64(lres.Mallocs) / float64(lres.Ops)
	}
	res.Reclaimer.Retired = m.Retired
	res.Reclaimer.Freed = m.Freed
	res.Reclaimer.Limbo = m.Limbo
	res.Reclaimer.EpochAdvances = m.EpochAdvances
	res.Reclaimer.Scans = m.Scans
	res.Reclaimer.Neutralizations = m.Neutralizations
	res.MopsPerSec = res.Throughput / 1e6
	return res, nil
}

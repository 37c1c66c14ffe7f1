package main

import (
	"errors"
	"fmt"
)

// perLayer lists the per-layer metrics in print order with their units.
// Layers are module names. README.md says which end-to-end metric each is
// expected to move, on which workload.
var perLayer = func() [][2]string {
	defs := [][2]string{
		{"kvwire.encode_req_ns_per_op", "ns"},
		{"kvwire.decode_req_ns_per_op", "ns"},
		{"kvwire.encode_resp_ns_per_op", "ns"},
		{"kvwire.decode_resp_ns_per_op", "ns"},
		{"kvwire.bytes_per_op", "B"},
		{"kvwire.allocs_per_op", "1/op"},
		{"kvservice.batch_mean_ops", "ops"},
		{"kvservice.busy_share", "share"},
		{"kvservice.allocs_per_op", "1/op"},
		{"kvservice.conn_setup_us", "us"},
		{"kvservice.residual_us_per_op", "us"},
		{"kvservice.op_p99_us", "us"},
		{"hashmap.route_ns_per_op", "ns"},
		{"hashmap.slot_acquire_ns", "ns"},
		{"hashmap.get_ns_per_op", "ns"},
		{"hashmap.upsert_ns_per_op", "ns"},
		{"hashmap.delete_ns_per_op", "ns"},
		{"hashmap.get_hit_share", "share"},
		{"hashmap.restarts_per_kop", "1/kop"},
		{"bst.insert_ns_per_op", "ns"},
		{"bst.delete_ns_per_op", "ns"},
		{"bst.contains_ns_per_op", "ns"},
		{"bst.update_success_share", "share"},
		{"core.pin_unpin_ns", "ns"},
	}
	for _, scheme := range coreSchemes {
		defs = append(defs, [2]string{"core.alloc_retire_ns." + scheme, "ns"})
	}
	return append(defs, [][2]string{
		{"core.slot_acquire_ns", "ns"},
		{"core.allocated_per_kop", "1/kop"},
		{"core.retired_per_kop", "1/kop"},
		{"core.pool_reuse_share", "share"},
		{"core.unreclaimed_max_records", "records"},
		{"reclaim.epoch_advances_per_kop", "1/kop"},
		{"reclaim.scans_per_kop", "1/kop"},
		{"reclaim.freed_per_retired", "share"},
		{"reclaim.limbo_mean_records", "records"},
		{"trace.overhead_share", "share"},
	}...)
}()

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serviceProbeOps is the length of the lockstep service run a traced run of
// an in-process workload makes to fill the kvservice metrics.
const serviceProbeOps = 40_000

// asService returns the shape s's stream takes through the service: s itself
// for a service workload; for an in-process one, the same keys, mix and
// prefill on one lockstep connection.
func asService(s *spec) *spec {
	if s.structure == structService {
		return s
	}
	svc := *s
	svc.structure, svc.workers, svc.depth = structService, 1, 1
	svc.segOps, svc.warmOps, svc.traceMask = serviceProbeOps, serviceProbeOps/4, 63
	return &svc
}

// runTraced is the separate traced run that yields the per-layer metrics:
// half the segments untraced and half with spans on, on one build; then the
// ledger — replay of the stream through the service's layers, structure
// probes, core probes — and the reconciliation of the service's end-to-end
// time per operation against the replayed layers.
func runTraced(s *spec, seed uint64, segments int) (map[string]metric, *runRecord, outcome) {
	var out outcome
	rec := newRunRecord(s, seed)
	fail := func(err error) (map[string]metric, *runRecord, outcome) {
		out.err = err
		return nil, rec, out
	}

	t, err := setup(s, seed)
	if err != nil {
		return fail(err)
	}
	segments *= segmentsPerSecond
	plain, err := measure(t, segments/2)
	if err != nil {
		return fail(err)
	}
	recs := make([]*recorder, len(t.workers))
	for i, w := range t.workers {
		recs[i] = newRecorder(s.traceMask)
		w.state().tr = recs[i]
	}
	traced, err := measure(t, segments-segments/2)
	out.absorb(t, errors.Join(err, t.finish()))

	// The service run the kvservice metrics and the reconciliation refer to:
	// this run for a service workload, a short lockstep rendition of the same
	// stream for an in-process one.
	svc, svcRun, connSetupNs := asService(s), plain, t.connSetupNs
	if svc != s {
		st, err := setup(svc, seed)
		if err != nil {
			return fail(err)
		}
		svcRun, err = measure(st, segmentsPerSecond)
		connSetupNs = st.connSetupNs
		out.absorb(st, errors.Join(err, st.finish()))
	}

	ledger := newRecorder(0)
	replayed, err := replay(svc, seed, ledger)
	if err != nil {
		return fail(err)
	}
	mapProbe, err := probeStructure(ledger, structMap, s, seed)
	if err != nil {
		return fail(err)
	}
	bstProbe, err := probeStructure(ledger, structBST, s, seed)
	if err != nil {
		return fail(err)
	}
	if err := probeCore(ledger); err != nil {
		return fail(err)
	}
	for _, p := range []*tally{replayed, mapProbe, bstProbe} {
		out.attempted += p.ops
		out.failed += p.failed + p.busy
	}
	recs = append(recs, ledger)
	if rec.SpanFile, err = writeSpans(s.name, recs...); err != nil {
		return fail(err)
	}
	for _, r := range recs {
		rec.SpansDropped += r.dropped
	}

	layers := selfTimes(ledger)
	ns := func(name string) float64 { return layers[name].nsPerOp() }
	// End-to-end time per operation as one connection sees it.
	e2eUs := float64(svc.workers) * 1e6 / svcRun.t.opsPerS
	residualUs := e2eUs
	fmt.Printf("  reconcile %s as %d conn x depth %d: end-to-end %.4f us/op =", s.name, svc.workers, svc.depth, e2eUs)
	for _, name := range replayLayers {
		us := float64(layers[name].SelfNs) / replayOps / 1e3
		residualUs -= us
		fmt.Printf(" %s %.4f (%.1f%%) +", name, us, 100*us/e2eUs)
	}
	fmt.Printf(" kvservice.residual %.4f (%.1f%%) = 100%%\n", residualUs, 100*residualUs/e2eUs)

	restarts := 0.0
	if s.structure == structMap {
		restarts = 1e3 * ratio(plain.delta.Restarts, plain.sum.ops)
	}
	d, kops := plain.delta, float64(plain.sum.ops)/1e3
	values := map[string]float64{
		"kvwire.encode_req_ns_per_op":  ns("kvwire.encode_req"),
		"kvwire.decode_req_ns_per_op":  ns("kvwire.decode_req"),
		"kvwire.encode_resp_ns_per_op": ns("kvwire.encode_resp"),
		"kvwire.decode_resp_ns_per_op": ns("kvwire.decode_resp"),
		"kvwire.bytes_per_op":          ratio(replayed.bytes, replayed.ops),
		"kvwire.allocs_per_op":         codecAllocs(svc, seed),

		"kvservice.batch_mean_ops":     ratio(svcRun.sum.ops, svcRun.delta.Batches),
		"kvservice.busy_share":         ratio(svcRun.delta.Busy, svcRun.sum.ops),
		"kvservice.allocs_per_op":      ratio(int64(svcRun.mallocs), svcRun.sum.ops),
		"kvservice.conn_setup_us":      float64(connSetupNs) / 1e3,
		"kvservice.residual_us_per_op": residualUs,
		"kvservice.op_p99_us":          svcRun.t.p99Us,

		"hashmap.route_ns_per_op":  ns("hashmap.route"),
		"hashmap.slot_acquire_ns":  ns("hashmap.slot_acquire"),
		"hashmap.get_ns_per_op":    ns("hashmap.get"),
		"hashmap.upsert_ns_per_op": ns("hashmap.upsert"),
		"hashmap.delete_ns_per_op": ns("hashmap.delete"),
		"hashmap.get_hit_share":    ratio(mapProbe.readHits, mapProbe.reads),
		"hashmap.restarts_per_kop": restarts,

		"bst.insert_ns_per_op":     ns("bst.insert"),
		"bst.delete_ns_per_op":     ns("bst.delete"),
		"bst.contains_ns_per_op":   ns("bst.contains"),
		"bst.update_success_share": ratio(bstProbe.updateOKs, bstProbe.updates),

		"core.pin_unpin_ns":            ns("core.pin_unpin"),
		"core.slot_acquire_ns":         ns("core.slot_acquire"),
		"core.allocated_per_kop":       float64(d.Fresh+d.Reused) / kops,
		"core.retired_per_kop":         float64(d.Retired) / kops,
		"core.pool_reuse_share":        ratio(d.Reused, d.Fresh+d.Reused),
		"core.unreclaimed_max_records": float64(plain.unrMax),

		"reclaim.epoch_advances_per_kop": float64(d.EpochAdvances) / kops,
		"reclaim.scans_per_kop":          float64(d.Scans) / kops,
		"reclaim.freed_per_retired":      ratio(d.Freed, d.Retired),
		"reclaim.limbo_mean_records":     ratio(plain.sum.limboSum, plain.sum.samples),

		"trace.overhead_share": 1 - traced.t.opsPerS/plain.t.opsPerS,
	}
	for _, scheme := range coreSchemes {
		values["core.alloc_retire_ns."+scheme] = ns("core.alloc_retire." + scheme)
	}
	rec.Segments, rec.TracedSegments = plain.segs, traced.segs
	rec.UnreclaimedSamples = plain.sum.samples
	rec.Spans = selfTimes(recs...)
	return toMetrics(perLayer, values), rec, out
}

// toMetrics attaches the units of defs to values. A definition without a
// value is a bug in this file, not a condition of the run.
func toMetrics(defs [][2]string, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d[0]]
		if !ok {
			panic("benchmark: no value computed for metric " + d[0])
		}
		out[d[0]] = metric{v, d[1]}
	}
	return out
}

package main

import (
	"bytes"
	"fmt"
	"runtime"

	"repro/internal/ds/hashmap"
	"repro/internal/kvwire"
	"repro/internal/recordmgr"
)

// The ledger times each layer from outside, by calling its public functions
// on the workload's own generated stream, one layer at a time over a chunk
// of operations. A span covers a whole chunk, so the two clock reads it
// costs are spread over chunkOps operations (< 0.2 ns each).
const (
	chunkOps    = 256
	replayOps   = 1 << 19 // operations replayed through the service's layers
	probeRounds = 256     // rounds of one chunk per operation kind, per structure probe
	coreRounds  = 64      // rounds of coreBatch primitives, per core probe
	coreBatch   = 4096
)

// arena mirrors kvservice's value arena: stored PUT values must not alias the
// request buffer, and the server pays for that copy inside its map step.
type arena struct{ chunk []byte }

func (a *arena) copyOf(v []byte) []byte {
	if len(v) > len(a.chunk) {
		a.chunk = make([]byte, 64<<10)
	}
	dst := a.chunk[:len(v):len(v)]
	a.chunk = a.chunk[len(v):]
	copy(dst, v)
	return dst
}

// replay runs worker 0's stream of s — the same stream the service run sends
// over TCP — through the layers the server puts a request through, in the
// server's order, in this goroutine: encode request, decode request, acquire
// slots, route, map operation, encode response, decode response. Each step
// is a child span of the chunk's root. It returns the verification tally.
func replay(s *spec, seed uint64, rec *recorder) (*tally, error) {
	cfg := managerConfig(1)
	cfg.MaxThreads = 8 // kvservice's default slot capacity per partition
	pm := hashmap.NewPartitioned(mapPartitions, func(int) *hashmap.Manager[[]byte] {
		return recordmgr.MustBuild[hashmap.Node[[]byte]](cfg)
	}, 1)
	g := newGen(s, seed, 0)
	var (
		t       tally
		val     [valueLen]byte
		values  arena
		h       = pm.NewHandle()
		ops     = make([]op, 0, chunkOps)
		reqs    = make([]kvwire.Request, 0, chunkOps)
		parts   = make([]int, chunkOps)
		results = make([]kvwire.Response, chunkOps)
		flags   = [2][]byte{{0}, {1}}
		reqBuf  []byte
		respBuf []byte
		frame   = make([]byte, 4096)
		rd      bytes.Reader
	)
	h.Acquire()
	for _, o := range g.prefillOps(s, seed, 0) {
		h.Upsert(o.key, values.copyOf(appendValue(val[:0], o.key, o.seq)))
	}
	h.Release()

	windows := chunkOps / s.depth
	for c := 0; c < replayOps/chunkOps; c++ {
		req := uint64(c)
		start := now()
		ops = ops[:0]
		for i := 0; i < chunkOps; i++ {
			ops = append(ops, g.next())
		}
		t0 := now()
		reqBuf = reqBuf[:0]
		for _, o := range ops {
			reqBuf = appendRequest(reqBuf, o, &val)
		}
		t1 := now()
		reqs = reqs[:0]
		for off := 0; off < len(reqBuf); {
			var n int
			var err error
			// One call per service window, as the connection loop makes.
			reqs, n, err = kvwire.DecodeRequests(reqs, reqBuf[off:], len(reqs)+s.depth)
			if err != nil {
				return nil, fmt.Errorf("replay decode: %w", err)
			}
			off += n
		}
		t2 := now()
		// The server acquires and releases once per window; the chunk's last
		// release comes after the map step.
		for w := 1; w < windows; w++ {
			h.Acquire()
			h.Release()
		}
		h.Acquire()
		t3 := now()
		for i := range reqs {
			parts[i] = pm.PartitionFor(reqs[i].Key)
		}
		t4 := now()
		for i, r := range reqs {
			hd := h.Part(parts[i])
			switch r.Op {
			case kvwire.OpGet:
				if v, ok := hd.Get(r.Key); ok {
					results[i] = kvwire.Response{Status: kvwire.StatusOK, Body: v}
				} else {
					results[i] = kvwire.Response{Status: kvwire.StatusNotFound}
				}
			case kvwire.OpPut:
				_, replaced := hd.Upsert(r.Key, values.copyOf(r.Value))
				results[i] = kvwire.Response{Status: kvwire.StatusOK, Body: flags[b2i(replaced)]}
			default:
				results[i] = kvwire.Response{Status: kvwire.StatusOK, Body: flags[b2i(hd.Delete(r.Key))]}
			}
		}
		t5 := now()
		h.Release()
		t6 := now()
		respBuf = respBuf[:0]
		for _, r := range results[:len(reqs)] {
			respBuf = kvwire.AppendResponse(respBuf, r.Status, r.Body)
		}
		t7 := now()
		rd.Reset(respBuf)
		for _, o := range ops {
			payload, err := kvwire.ReadFrame(&rd, frame)
			if err != nil {
				return nil, fmt.Errorf("replay read: %w", err)
			}
			resp, err := kvwire.DecodeResponse(payload)
			if err != nil {
				return nil, fmt.Errorf("replay decode response: %w", err)
			}
			checkResponse(&t, &val, o, resp)
		}
		t8 := now()
		t.ops += chunkOps
		t.bytes += int64(len(reqBuf) + len(respBuf))

		p := rec.add("replay", start, t8, -1, req, chunkOps)
		rec.add("bench.generate", start, t0, p, req, chunkOps)
		rec.add("kvwire.encode_req", t0, t1, p, req, chunkOps)
		rec.add("kvwire.decode_req", t1, t2, p, req, chunkOps)
		rec.add("hashmap.slot_acquire", t2, t3, p, req, windows) // counted in acquire+release pairs
		rec.add("hashmap.route", t3, t4, p, req, chunkOps)
		rec.add("hashmap.op", t4, t5, p, req, chunkOps)
		rec.add("hashmap.slot_acquire", t5, t6, p, req, 0)
		rec.add("kvwire.encode_resp", t6, t7, p, req, chunkOps)
		rec.add("kvwire.decode_resp", t7, t8, p, req, chunkOps)
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	pm.Close()
	return &t, checkDrained("replay", managerCounters(pm.ManagerStats()))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// replayLayers are the replay's span names in the order a request meets
// them; the reconciliation line prints them in this order.
var replayLayers = []string{
	"bench.generate", "kvwire.encode_req", "kvwire.decode_req", "hashmap.slot_acquire",
	"hashmap.route", "hashmap.op", "kvwire.encode_resp", "kvwire.decode_resp",
}

// codecAllocs counts heap allocations per operation of the four kvwire steps
// alone, on the first chunk of the stream.
func codecAllocs(s *spec, seed uint64) float64 {
	g := newGen(s, seed, 0)
	g.prefillOps(s, seed, 0)
	ops := make([]op, chunkOps)
	for i := range ops {
		ops[i] = g.next()
	}
	var (
		val     [valueLen]byte
		reqBuf  = make([]byte, 0, chunkOps*32)
		respBuf = make([]byte, 0, chunkOps*32)
		reqs    = make([]kvwire.Request, 0, chunkOps)
		frame   = make([]byte, 4096)
		rd      bytes.Reader
	)
	const rounds = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		reqBuf = reqBuf[:0]
		for _, o := range ops {
			reqBuf = appendRequest(reqBuf, o, &val)
		}
		reqs, _, _ = kvwire.DecodeRequests(reqs[:0], reqBuf, 0)
		respBuf = respBuf[:0]
		for _, rq := range reqs {
			respBuf = kvwire.AppendResponse(respBuf, kvwire.StatusOK, rq.Value)
		}
		rd.Reset(respBuf)
		for range reqs {
			payload, err := kvwire.ReadFrame(&rd, frame)
			if err != nil {
				panic(err) // frames this function just encoded
			}
			if _, err := kvwire.DecodeResponse(payload); err != nil {
				panic(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / (rounds * chunkOps)
}

// probeStructure times homogeneous chunks of reads, puts and deletes on a
// single-threaded instance of the given structure, built and prefilled as
// the workload prescribes and driven on the workload's key distribution.
// Every result is checked against the model, as in a measured run.
func probeStructure(rec *recorder, structure string, s *spec, seed uint64) (*tally, error) {
	ps := *s
	ps.structure, ps.workers = structure, 1
	t, err := build(&ps, seed)
	if err != nil {
		return nil, err
	}
	w := t.workers[0].(*localWorker)
	ops := make([]op, chunkOps)
	for round := 0; round < probeRounds; round++ {
		for kind := opRead; kind <= opDel; kind++ {
			for i := range ops {
				ops[i] = w.g.nextOf(kind)
			}
			failed := 0
			t0 := now()
			for _, o := range ops {
				if !w.apply(o) {
					failed++
				}
			}
			rec.add(w.names[kind], t0, now(), -1, uint64(round), chunkOps)
			w.failed += int64(failed)
			w.ops += chunkOps
		}
	}
	return &w.tally, t.finish()
}

// probeRecord is the record type of the core probes.
type probeRecord struct{ _ [48]byte }

// coreSchemes are the schemes whose allocate+retire round trip the ledger
// compares (the paper's Figure 2 families; DEBRA+ is left out until its
// neutralization is sound — ROADMAP).
var coreSchemes = []string{
	recordmgr.SchemeNone, recordmgr.SchemeEBR, recordmgr.SchemeQSBR, recordmgr.SchemeDEBRA, recordmgr.SchemeHP,
}

// probeCore times the Record Manager's primitives on a one-thread manager:
// pin+unpin and slot acquire+release under DEBRA, and the pinned
// allocate+retire round trip under every scheme.
func probeCore(rec *recorder) error {
	mgr, err := recordmgr.Build[probeRecord](managerConfig(1))
	if err != nil {
		return err
	}
	h := mgr.AcquireHandle()
	for r := 0; r < coreRounds; r++ {
		t0 := now()
		for i := 0; i < coreBatch; i++ {
			h.LeaveQstate()
			h.EnterQstate()
		}
		rec.add("core.pin_unpin", t0, now(), -1, uint64(r), coreBatch)
	}
	mgr.ReleaseHandle(h)
	for r := 0; r < coreRounds; r++ {
		t0 := now()
		for i := 0; i < coreBatch; i++ {
			mgr.ReleaseHandle(mgr.AcquireHandle())
		}
		rec.add("core.slot_acquire", t0, now(), -1, uint64(r), coreBatch)
	}
	mgr.Close()
	for _, scheme := range coreSchemes {
		cfg := managerConfig(1)
		cfg.Scheme = scheme
		mgr, err := recordmgr.Build[probeRecord](cfg)
		if err != nil {
			return err
		}
		h := mgr.AcquireHandle()
		name := "core.alloc_retire." + scheme
		for r := 0; r < coreRounds; r++ {
			t0 := now()
			for i := 0; i < coreBatch; i++ {
				h.LeaveQstate()
				h.Retire(h.Allocate())
				h.EnterQstate()
			}
			rec.add(name, t0, now(), -1, uint64(r), coreBatch)
		}
		mgr.ReleaseHandle(h)
		mgr.Close()
		if ms := mgr.Stats(); scheme != recordmgr.SchemeNone && ms.Reclaimer.Retired != ms.Reclaimer.Freed {
			return fmt.Errorf("core probe %s: retired=%d freed=%d after Close", scheme, ms.Reclaimer.Retired, ms.Reclaimer.Freed)
		}
	}
	return nil
}

package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ds/bst"
	"repro/internal/ds/hashmap"
	"repro/internal/recordmgr"
)

// target is one built system under test with its closed-loop workers bound.
type target struct {
	spec    *spec
	workers []worker
	// connSetupNs is the mean time from dial to the first response, per
	// connection (service only).
	connSetupNs int64
	// counters returns the cumulative layer counters. Exact when the workers
	// are quiescent (every call site is at a segment barrier or a sample
	// point that tolerates a racy read).
	counters func() counters
	// finish is called once, quiescent: it validates the structure, compares
	// its contents with the workers' models, shuts it down and checks the
	// shutdown invariant Retired == Freed.
	finish func() error
}

// worker is one closed-loop client.
type worker interface {
	run(ops int) // executes and verifies the next ops operations of its stream
	state() *tally
}

// counters are the cumulative counts read at layer boundaries. The fields
// are the ones both core.ManagerStats and kvservice.Snapshot expose.
type counters struct {
	Retired, Freed, Limbo, Unreclaimed int64
	EpochAdvances, Scans               int64
	Fresh, Reused                      int64 // allocations served by the allocator / by the pool
	Restarts                           int64 // data-structure restarts (in-process only: the service does not export them)
	Batches, Busy                      int64 // kvservice windows executed / ERR_BUSY responses
}

func managerCounters(ms core.ManagerStats) counters {
	return counters{
		Retired: ms.Reclaimer.Retired, Freed: ms.Reclaimer.Freed, Limbo: ms.Reclaimer.Limbo,
		Unreclaimed: ms.Unreclaimed, EpochAdvances: ms.Reclaimer.EpochAdvances, Scans: ms.Reclaimer.Scans,
		Fresh: ms.Alloc.Allocated, Reused: ms.Pool.Reused,
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		Retired: c.Retired - o.Retired, Freed: c.Freed - o.Freed, Limbo: c.Limbo, Unreclaimed: c.Unreclaimed,
		EpochAdvances: c.EpochAdvances - o.EpochAdvances, Scans: c.Scans - o.Scans,
		Fresh: c.Fresh - o.Fresh, Reused: c.Reused - o.Reused, Restarts: c.Restarts - o.Restarts,
		Batches: c.Batches - o.Batches, Busy: c.Busy - o.Busy,
	}
}

const (
	latMask     = 31   // in-process: every 32nd operation is timed
	sampleEvery = 1024 // worker 0 samples the unreclaimed count once in so many operations
)

// counts are the additive part of a tally.
type counts struct {
	ops, failed, busy  int64 // executed, result differed from the model, refused with ERR_BUSY
	reads, readHits    int64
	updates, updateOKs int64 // puts+deletes, and those that changed the structure
	bytes              int64 // service: request + response bytes on the wire
	// Samples of the manager's Unreclaimed and Limbo, taken by worker 0.
	unrSum, limboSum, samples int64
}

// plus returns c + sign*o.
func (c counts) plus(o counts, sign int64) counts {
	return counts{
		ops: c.ops + sign*o.ops, failed: c.failed + sign*o.failed, busy: c.busy + sign*o.busy,
		reads: c.reads + sign*o.reads, readHits: c.readHits + sign*o.readHits,
		updates: c.updates + sign*o.updates, updateOKs: c.updateOKs + sign*o.updateOKs,
		bytes:  c.bytes + sign*o.bytes,
		unrSum: c.unrSum + sign*o.unrSum, limboSum: c.limboSum + sign*o.limboSum, samples: c.samples + sign*o.samples,
	}
}

// tally is one worker's single-writer record of what it did and saw.
type tally struct {
	counts
	unrMax int64
	lat    hist // latency samples of the current segment
	tr     *recorder
	// sample is set on worker 0 only; it reads (Unreclaimed, Limbo).
	sample     func() (int64, int64)
	nextSample int64 // operation count at which the next sample is due
	err        error // first I/O or framing error (service); the worker stops issuing requests
}

func (t *tally) state() *tally { return t }

// observe samples the unreclaimed count when this operation index is due.
func (t *tally) observe() {
	if t.sample == nil || t.ops < t.nextSample {
		return
	}
	t.nextSample = t.ops + sampleEvery
	unr, limbo := t.sample()
	t.unrSum += unr
	t.limboSum += limbo
	t.unrMax = max(t.unrMax, unr)
	t.samples++
}

// kv is what the in-process worker needs from a structure: the three
// operations on one bound handle, and the span names they trace under.
type kv interface {
	get(key int64) (seq uint32, ok bool)
	put(key int64, seq uint32) (prev uint32, existed bool)
	del(key int64) bool
	names() [3]string // span names indexed by opKind
}

type bstKV struct{ h bst.Handle[uint32] }

func (b bstKV) get(key int64) (uint32, bool) { return b.h.Get(key) }
func (b bstKV) put(key int64, seq uint32) (uint32, bool) {
	return 0, !b.h.Insert(key, seq) // set semantics: a present key keeps its value
}
func (b bstKV) del(key int64) bool { return b.h.Delete(key) }
func (bstKV) names() [3]string     { return [3]string{"bst.contains", "bst.insert", "bst.delete"} }

type mapKV struct {
	h *hashmap.PartitionedHandle[uint32]
}

func (m mapKV) get(key int64) (uint32, bool)             { return m.h.Get(key) }
func (m mapKV) put(key int64, seq uint32) (uint32, bool) { return m.h.Upsert(key, seq) }
func (m mapKV) del(key int64) bool                       { return m.h.Delete(key) }
func (mapKV) names() [3]string {
	return [3]string{"hashmap.get", "hashmap.upsert", "hashmap.delete"}
}

// localWorker drives an in-process structure through a kv handle.
type localWorker struct {
	tally
	id    int
	g     *gen
	ds    kv
	names [3]string
}

// apply executes one operation and reports whether the result matched the
// model.
func (w *localWorker) apply(o op) bool {
	switch o.kind {
	case opRead:
		seq, ok := w.ds.get(o.key)
		w.reads++
		if ok {
			w.readHits++
		}
		return ok == (o.want != 0) && seq == o.want
	case opPut:
		prev, existed := w.ds.put(o.key, o.seq)
		w.updates++
		if !existed || w.g.replaces {
			w.updateOKs++
		}
		return existed == (o.want != 0) && (!w.g.replaces || prev == o.want)
	default:
		hit := w.ds.del(o.key)
		w.updates++
		if hit {
			w.updateOKs++
		}
		return hit == (o.want != 0)
	}
}

func (w *localWorker) run(ops int) {
	for i := 0; i < ops; i++ {
		timed := w.ops&latMask == 0
		traced := timed && w.tr != nil && w.ops&w.tr.mask == 0
		var root, t0 int64
		if traced {
			root = now()
		}
		o := w.g.next()
		if timed {
			t0 = now()
		}
		ok := w.apply(o)
		if timed {
			t1 := now()
			w.lat.add(t1 - t0)
			if traced {
				req := uint64(w.id)<<48 | uint64(w.ops)
				p := w.tr.add("op", root, now(), -1, req, 1)
				w.tr.add(w.names[o.kind], t0, t1, p, req, 1)
			}
		}
		if !ok {
			w.failed++
		}
		w.ops++
		w.observe()
	}
}

// managerConfig is the Record Manager every in-process workload and every
// replay runs on: DEBRA, bump allocator, pool on — the paper's subject and
// what kvservice builds when told -pool.
func managerConfig(threads int) recordmgr.Config {
	return recordmgr.Config{
		Scheme: recordmgr.SchemeDEBRA, Threads: threads,
		Allocator: recordmgr.AllocBump, UsePool: true,
	}
}

// newLocalWorkers builds one worker per kv handle and prefills through them.
func newLocalWorkers(s *spec, seed uint64, handles []kv) ([]worker, error) {
	ws := make([]worker, len(handles))
	for i, h := range handles {
		w := &localWorker{id: i, g: newGen(s, seed, i), ds: h, names: h.names()}
		for _, o := range w.g.prefillOps(s, seed, i) {
			if _, existed := h.put(o.key, o.seq); existed {
				return nil, fmt.Errorf("%s: prefill found key %d present", s.name, o.key)
			}
		}
		ws[i] = w
	}
	return ws, nil
}

func localWorkersOf(t *target) []*localWorker {
	ws := make([]*localWorker, len(t.workers))
	for i, w := range t.workers {
		ws[i] = w.(*localWorker)
	}
	return ws
}

// checkContents compares a structure's final contents with the union of the
// workers' models.
func checkContents(s *spec, ws []*localWorker, forEach func(func(key int64, seq uint32) bool)) error {
	var err error
	seen := 0
	forEach(func(key int64, seq uint32) bool {
		if err != nil {
			return false // a partitioned walk calls again for the next partition
		}
		seen++
		if key < 0 || key >= s.keys {
			err = fmt.Errorf("%s: key %d outside the workload's range", s.name, key)
			return false
		}
		g := ws[key%int64(s.workers)].g
		if want := g.model[key/int64(s.workers)]; want != seq {
			err = fmt.Errorf("%s: key %d holds %d, model says %d", s.name, key, seq, want)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	want := 0
	for _, w := range ws {
		for _, seq := range w.g.model {
			if seq != 0 {
				want++
			}
		}
	}
	if seen != want {
		return fmt.Errorf("%s: structure holds %d keys, models hold %d", s.name, seen, want)
	}
	return nil
}

// checkDrained is the shutdown invariant of every reclaiming scheme.
func checkDrained(name string, c counters) error {
	if c.Retired != c.Freed || c.Unreclaimed != 0 {
		return fmt.Errorf("%s: after Close retired=%d freed=%d unreclaimed=%d", name, c.Retired, c.Freed, c.Unreclaimed)
	}
	return nil
}

func buildBST(s *spec, seed uint64) (*target, error) {
	mgr, err := recordmgr.Build[bst.Record[uint32]](managerConfig(s.workers))
	if err != nil {
		return nil, err
	}
	tree := bst.New(mgr)
	handles := make([]kv, s.workers)
	bound := make([]bst.Handle[uint32], s.workers)
	for i := range handles {
		bound[i] = tree.AcquireHandle()
		handles[i] = bstKV{bound[i]}
	}
	ws, err := newLocalWorkers(s, seed, handles)
	if err != nil {
		return nil, err
	}
	t := &target{spec: s, workers: ws}
	t.counters = func() counters {
		c := managerCounters(mgr.Stats())
		c.Restarts = tree.Stats().Restarts
		return c
	}
	t.finish = func() error {
		if err := tree.Validate(); err != nil {
			return err
		}
		if err := checkContents(s, localWorkersOf(t), tree.ForEach); err != nil {
			return err
		}
		for _, h := range bound {
			tree.ReleaseHandle(h)
		}
		mgr.Close()
		return checkDrained(s.name, t.counters())
	}
	return t, nil
}

func buildMap(s *spec, seed uint64) (*target, error) {
	cfg := managerConfig(s.workers)
	pm := hashmap.NewPartitioned(mapPartitions, func(int) *hashmap.Manager[uint32] {
		return recordmgr.MustBuild[hashmap.Node[uint32]](cfg)
	}, s.workers)
	handles := make([]kv, s.workers)
	bound := make([]*hashmap.PartitionedHandle[uint32], s.workers)
	for i := range handles {
		bound[i] = pm.AcquireHandle()
		handles[i] = mapKV{bound[i]}
	}
	ws, err := newLocalWorkers(s, seed, handles)
	if err != nil {
		return nil, err
	}
	t := &target{spec: s, workers: ws}
	t.counters = func() counters {
		c := managerCounters(pm.ManagerStats())
		c.Restarts = pm.Stats().Restarts
		return c
	}
	t.finish = func() error {
		if err := pm.Validate(); err != nil {
			return err
		}
		forEach := func(fn func(int64, uint32) bool) {
			for p := 0; p < pm.Partitions(); p++ {
				pm.Partition(p).ForEach(fn)
			}
		}
		if err := checkContents(s, localWorkersOf(t), forEach); err != nil {
			return err
		}
		for _, h := range bound {
			h.Release()
		}
		pm.Close()
		return checkDrained(s.name, t.counters())
	}
	return t, nil
}

// mapPartitions is the partition count of every partitioned map the
// benchmark builds, in-process or behind the service.
const mapPartitions = 2

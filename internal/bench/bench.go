// Package bench is the experiment harness that regenerates the tables and
// figures of the paper's evaluation (Section 7): throughput of a lock-free
// BST and a lock-based skip list under different reclamation schemes, thread
// counts, operation mixes, key ranges and allocation regimes, plus the
// memory-footprint measurement of Figure 9 and the qualitative scheme
// comparison of Figure 2.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ds/bst"
	"repro/internal/ds/hashmap"
	"repro/internal/ds/skiplist"
	"repro/internal/neutralize"
	"repro/internal/recordmgr"
)

// Data structure names accepted by Config.DataStructure.
const (
	DSBST      = "bst"
	DSSkipList = "skiplist"
	DSHashMap  = "hashmap"
	// DSHotPathPin and DSHotPathAlloc are not data structures but per-op
	// microcost probes (experiment 7): each "operation" of a trial is one
	// Record Manager primitive sequence on a thread handle, so the measured
	// Mops/s is the inverse of the scheme's per-op constant — the quantity
	// Hart et al. show dominates scheme comparisons.
	DSHotPathPin   = "hotpath:pin"   // LeaveQstate/EnterQstate pair
	DSHotPathAlloc = "hotpath:alloc" // pin + Allocate + Retire round-trip + unpin
)

// Workload describes the operation mix and key range of a trial.
type Workload struct {
	// InsertPct and DeletePct are percentages; the remainder are searches.
	InsertPct int
	DeletePct int
	// KeyRange is the size of the uniform key universe [0, KeyRange).
	KeyRange int64
	// PrefillFraction is the fraction of KeyRange inserted before the
	// timed phase (the paper prefills to half the key range).
	PrefillFraction float64
}

// String renders the mix the way the paper labels it (e.g. "50i-50d").
func (w Workload) String() string {
	return fmt.Sprintf("%di-%dd-%ds range %d", w.InsertPct, w.DeletePct, 100-w.InsertPct-w.DeletePct, w.KeyRange)
}

// Standard mixes from the paper.
var (
	// MixUpdateHeavy is 50% inserts, 50% deletes.
	MixUpdateHeavy = Workload{InsertPct: 50, DeletePct: 50, PrefillFraction: 0.5}
	// MixReadHeavy is 25% inserts, 25% deletes, 50% searches.
	MixReadHeavy = Workload{InsertPct: 25, DeletePct: 25, PrefillFraction: 0.5}
)

// Config describes one trial.
type Config struct {
	DataStructure string
	Scheme        string
	Threads       int
	Duration      time.Duration
	Workload      Workload
	Allocator     recordmgr.AllocatorKind
	UsePool       bool
	Seed          int64
	// InitialBuckets pre-sizes the hash map's table (hashmap only; 0 uses
	// the package default, which grows incrementally under load). Pre-sizing
	// to KeyRange/2 removes resizing from the measurement; the default
	// regime includes it.
	InitialBuckets int
	// Shards is the number of sharded reclamation domains (0/1 = one global
	// domain).
	Shards int
	// Placement is the tid→shard placement policy name ("block"/"stripe").
	Placement string
	// RetireBatch is the per-thread deferred-retire batch size (0 = direct
	// retirement).
	RetireBatch int
	// ChurnOps, when > 0, makes each worker release its thread slot and
	// acquire a fresh one every ChurnOps operations (goroutine churn: at
	// throughput T ops/s the trial performs T/ChurnOps acquire+release
	// cycles per second per worker). The acquire+release latency is
	// measured and reported as ChurnNs/ChurnCycles.
	ChurnOps int
	// Partitions, ServiceBurst and ServiceDist configure the service trials
	// (DataStructure == DSService): the server's partition count, the
	// requests-per-slot-hold burst, and the load generator's key
	// distribution (kvload.DistZipf or DistUniform). Ignored by every other
	// data structure; for service trials, Threads is the connection count.
	Partitions   int
	ServiceBurst int
	ServiceDist  string
	// PipelineDepth configures a pipelined service trial (experiment 12) on
	// both sides of the wire: the server's maximum frames per batch
	// (kvservice.Config.PipelineDepth) and the load generator's in-flight
	// window per connection (kvload.Config.Pipeline). 0 leaves the load
	// generator in request/response lockstep against the server's default
	// batching, which is the experiment-9 configuration.
	PipelineDepth int
	// StallThreads configures the fault-probe trials (DataStructure ==
	// DSFaultProbe): how many of the trial's threads are parked while pinned
	// during the stalled measurement phase (see internal/faultinject.Probe).
	// Must be < Threads; ignored by every other data structure.
	StallThreads int
	// ChaosStallEvery and ChaosKillEvery configure chaos-mode service trials
	// (DataStructure == DSService): the load generator's mid-frame stall and
	// connection-kill cadences (kvload.Config fields of the same names; 0 =
	// no chaos). Ignored by every other data structure.
	ChaosStallEvery int
	ChaosKillEvery  int
	// Repeat, when > 1, runs the trial that many times and keeps the
	// best-throughput result (every run builds a fresh data structure and
	// Record Manager). Best-of-N is the standard defense against scheduler
	// and frequency noise on shared or oversubscribed machines: downward
	// outliers — the only direction a regression gate acts on — are
	// suppressed, while the retained run's counters stay internally
	// consistent because they all come from the same run.
	Repeat int
}

// Result is the outcome of one trial.
type Result struct {
	Config Config
	// Ops is the total number of completed operations in the timed phase.
	Ops int64
	// Throughput is operations per second.
	Throughput float64
	// MopsPerSec is Throughput in millions, the unit the paper plots.
	MopsPerSec float64
	// AllocatedBytes is the total memory handed out for records (the bump
	// pointer movement the paper reports in Figure 9 right).
	AllocatedBytes int64
	// AllocatedRecords is the number of records handed out.
	AllocatedRecords int64
	// Reclaimer is the reclaimer's counter snapshot at the end.
	Reclaimer core.Stats
	// PoolReused counts allocations served from the pool.
	PoolReused int64
	// RetirePending is the number of records parked in deferred-retire
	// buffers at the end of the trial (0 unless RetireBatch is set).
	RetirePending int64
	// Unreclaimed is the true retired-but-not-freed count at the end of the
	// trial: Reclaimer.Limbo + RetirePending. Limbo alone understates memory
	// held whenever batching parks records outside the scheme.
	Unreclaimed int64
	// ChurnCycles is the number of release+acquire slot cycles the workers
	// performed during the timed phase (0 unless ChurnOps is set).
	ChurnCycles int64
	// ChurnNs is the total wall time the workers spent inside those
	// release+acquire cycles; ChurnNs/ChurnCycles is the per-cycle cost the
	// churn experiment reports.
	ChurnNs int64
	// AllocsPerOp is the process-wide heap allocations per completed request
	// of a service trial: the runtime.MemStats.Mallocs delta over the measured
	// phase (prefill excluded) divided by Ops. Server and in-process load
	// generator share the count, so it is an upper bound on the server's
	// per-request allocations — the hard per-path guarantees live in
	// kvservice's AllocsPerRun tests. 0 outside service trials.
	AllocsPerOp float64
	// P50Ns, P99Ns and P999Ns are request-latency quantiles in nanoseconds
	// (service trials only; 0 elsewhere). The tail quantiles are what
	// reclamation stalls move and what throughput averages hide.
	P50Ns  int64
	P99Ns  int64
	P999Ns int64
	// FaultStalled is the number of threads parked while pinned during a
	// fault-probe trial's stalled phase (0 elsewhere). FaultBaselineSlope and
	// FaultStalledSlope are the Unreclaimed growth per operation measured
	// without and with the stall; FaultSlopeDelta is their difference — the
	// stall-induced growth — and FaultBounded is the classification
	// (delta under the slack: a stalled thread does not make unreclaimed
	// memory grow with continued operation). FaultMaxUnreclaimed is the
	// largest Unreclaimed sample of the probe.
	FaultStalled        int
	FaultBaselineSlope  float64
	FaultStalledSlope   float64
	FaultSlopeDelta     float64
	FaultBounded        bool
	FaultMaxUnreclaimed int64
	// ServiceBusy, ServiceRetries, ServiceReconnects and ServiceGaveUp are
	// the load generator's resilience counters of a service trial (ERR_BUSY
	// fast-fails absorbed, retry attempts, successful re-dials, connections
	// that exhausted their retries); ChaosStalls and ChaosKills count the
	// chaos injections that provoked them. All 0 outside service trials.
	ServiceBusy       int64
	ServiceRetries    int64
	ServiceReconnects int64
	ServiceGaveUp     int64
	ChaosStalls       int64
	ChaosKills        int64
	// Elapsed is the measured duration of the timed phase.
	Elapsed time.Duration
}

// set is the minimal data structure interface the harness drives. close
// shuts the Record Manager's reclamation pipeline down once the workers are
// joined (flush → limbo force-free).
type set interface {
	// acquire binds the calling goroutine to a vacant thread slot and returns
	// the slot-bound operations plus the release function. A worker acquires
	// once at registration — the measured loop then runs through the data
	// structure's thread handle, exactly like a real client would; churn
	// trials bind, work and release repeatedly.
	acquire() (opHandle, func())
	stats() core.ManagerStats
	close()
}

// opHandle is one worker's pre-resolved operation set.
type opHandle struct {
	insert   func(key int64) bool
	remove   func(key int64) bool
	contains func(key int64) bool
}

// setOps binds a data structure handle's operations as an opHandle.
func setOps(h interface {
	Insert(key, value int64) bool
	Delete(key int64) bool
	Contains(key int64) bool
}) opHandle {
	return opHandle{
		insert:   func(key int64) bool { return h.Insert(key, key) },
		remove:   h.Delete,
		contains: h.Contains,
	}
}

// bstSet adapts bst.Tree to the harness interface.
type bstSet struct{ t *bst.Tree[int64] }

func (s bstSet) stats() core.ManagerStats { return s.t.Manager().Stats() }
func (s bstSet) close()                   { s.t.Manager().Close() }

func (s bstSet) acquire() (opHandle, func()) {
	h := s.t.AcquireHandle()
	return setOps(h), func() { s.t.ReleaseHandle(h) }
}

// skipSet adapts skiplist.List to the harness interface.
type skipSet struct{ l *skiplist.List[int64] }

func (s skipSet) stats() core.ManagerStats { return s.l.Manager().Stats() }
func (s skipSet) close()                   { s.l.Manager().Close() }

func (s skipSet) acquire() (opHandle, func()) {
	h := s.l.AcquireHandle()
	return setOps(h), func() { s.l.ReleaseHandle(h) }
}

// hashSet adapts hashmap.Map to the harness interface.
type hashSet struct{ m *hashmap.Map[int64] }

func (s hashSet) stats() core.ManagerStats { return s.m.Manager().Stats() }
func (s hashSet) close()                   { s.m.Manager().Close() }

func (s hashSet) acquire() (opHandle, func()) {
	h := s.m.AcquireHandle()
	return setOps(h), func() { s.m.ReleaseHandle(h) }
}

// hotRecord is the record type of the hotpath microcost probes: small, so a
// leaking configuration stays cheap, but real enough to exercise the pool
// and block machinery.
type hotRecord struct {
	_ [2]int64
}

// microSet adapts a bare Record Manager to the harness interface: every
// "operation" is one hot-path primitive sequence on the thread's handle.
// The probes measure exactly what the Record Manager charges a data
// structure per operation, with no data structure work in the way.
type microSet struct {
	mgr  *core.RecordManager[hotRecord]
	kind string
}

func (s microSet) op(h *core.ThreadHandle[hotRecord]) bool {
	if h.SupportsCrashRecovery() {
		// DEBRA+ may deliver a neutralization at EnterQstate; the probe has
		// no state to recover (the retire happened before the delivery
		// point), so absorbing the signal mirrors a data structure's trivial
		// recovery. The deferred recover is paid only by the neutralizing
		// scheme, exactly as in the data structures.
		return s.opRecovering(h)
	}
	s.body(h)
	return true
}

func (s microSet) opRecovering(h *core.ThreadHandle[hotRecord]) (done bool) {
	defer neutralize.OnNeutralized(h, func(neutralize.Neutralized) {
		done = true
	})
	s.body(h)
	return true
}

func (s microSet) body(h *core.ThreadHandle[hotRecord]) {
	switch s.kind {
	case DSHotPathAlloc:
		h.LeaveQstate()
		rec := h.Allocate()
		h.Retire(rec)
		h.EnterQstate()
	default: // DSHotPathPin
		h.LeaveQstate()
		h.EnterQstate()
	}
}

func (s microSet) stats() core.ManagerStats { return s.mgr.Stats() }
func (s microSet) close()                   { s.mgr.Close() }

func (s microSet) acquire() (opHandle, func()) {
	h := s.mgr.AcquireHandle()
	op := func(key int64) bool { return s.op(h) }
	return opHandle{insert: op, remove: op, contains: op}, func() { s.mgr.ReleaseHandle(h) }
}

// SupportedSchemes returns the reclamation schemes the given data structure
// can run with: every implemented scheme, except that the skip list's
// lock-based updates cannot use the neutralizing DEBRA+ (interrupting a lock
// holder is unsafe — the limitation the paper notes for lock-based
// structures). The BST and skip list panels historically mirrored only the
// paper's scheme selection; they now include the EBR and QSBR ablation
// columns as well.
func SupportedSchemes(ds string) []string {
	switch ds {
	case DSSkipList:
		return []string{
			recordmgr.SchemeNone, recordmgr.SchemeEBR, recordmgr.SchemeQSBR,
			recordmgr.SchemeDEBRA, recordmgr.SchemeHP,
		}
	default:
		return []string{
			recordmgr.SchemeNone, recordmgr.SchemeEBR, recordmgr.SchemeQSBR,
			recordmgr.SchemeDEBRA, recordmgr.SchemeDEBRAPlus, recordmgr.SchemeHP,
		}
	}
}

// managerConfig translates a trial Config into the Record Manager
// construction options shared by every data structure.
func managerConfig(cfg Config) recordmgr.Config {
	return recordmgr.Config{
		Scheme:      cfg.Scheme,
		Threads:     cfg.Threads,
		Allocator:   cfg.Allocator,
		UsePool:     cfg.UsePool,
		Shards:      cfg.Shards,
		Placement:   core.ShardPlacement(cfg.Placement),
		RetireBatch: cfg.RetireBatch,
	}
}

// buildSet constructs the requested data structure and record manager.
func buildSet(cfg Config) (set, error) {
	switch cfg.DataStructure {
	case DSBST, "":
		mgr, err := recordmgr.Build[bst.Record[int64]](managerConfig(cfg))
		if err != nil {
			return nil, err
		}
		return bstSet{t: bst.New(mgr)}, nil
	case DSSkipList:
		mgr, err := recordmgr.Build[skiplist.Node[int64]](managerConfig(cfg))
		if err != nil {
			return nil, err
		}
		return skipSet{l: skiplist.New(mgr, cfg.Threads)}, nil
	case DSHashMap:
		mgr, err := recordmgr.Build[hashmap.Node[int64]](managerConfig(cfg))
		if err != nil {
			return nil, err
		}
		var opts []hashmap.Option
		if cfg.InitialBuckets > 0 {
			opts = append(opts, hashmap.WithInitialBuckets(cfg.InitialBuckets))
		}
		return hashSet{m: hashmap.New(mgr, cfg.Threads, opts...)}, nil
	case DSHotPathPin, DSHotPathAlloc:
		mgr, err := recordmgr.Build[hotRecord](managerConfig(cfg))
		if err != nil {
			return nil, err
		}
		return microSet{mgr: mgr, kind: cfg.DataStructure}, nil
	default:
		return nil, fmt.Errorf("bench: unknown data structure %q", cfg.DataStructure)
	}
}

// RunTrial prefills the data structure and runs one timed trial, returning
// its measurements. With Config.Repeat > 1 it runs the trial that many
// times and returns the best-throughput run's Result.
func RunTrial(cfg Config) (Result, error) {
	if cfg.Repeat > 1 {
		n := cfg.Repeat
		cfg.Repeat = 0
		best, err := RunTrial(cfg)
		if err != nil {
			return best, err
		}
		for i := 1; i < n; i++ {
			r, err := RunTrial(cfg)
			if err != nil {
				return best, err
			}
			if r.Throughput > best.Throughput {
				best = r
			}
		}
		return best, nil
	}
	if cfg.Threads <= 0 {
		return Result{}, fmt.Errorf("bench: Threads must be >= 1")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 200 * time.Millisecond
	}
	if cfg.Workload.KeyRange <= 0 {
		return Result{}, fmt.Errorf("bench: KeyRange must be >= 1")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DataStructure == DSService {
		// The service arm runs a real server and load generator; it shares
		// RunTrial's validation and defaulting but none of the in-process
		// worker machinery.
		return runServiceTrial(cfg)
	}
	if cfg.DataStructure == DSFaultProbe {
		// The fault-probe arm (experiment 11) runs the two-phase stalled
		// unreclaimed-growth probe; op counts are fixed, not duration-scaled.
		return runFaultProbeTrial(cfg)
	}
	s, err := buildSet(cfg)
	if err != nil {
		return Result{}, err
	}
	// Close no matter how the trial ends: runSafely converts panics (scheme
	// contract violations, escaped neutralizations) into errors. Close is
	// idempotent, so the normal-path close below is unaffected.
	defer s.close()
	prefill(s, cfg)

	var (
		stop        atomic.Bool
		totalOps    atomic.Int64
		churnCycles atomic.Int64
		churnNs     atomic.Int64
		wg          sync.WaitGroup
	)
	start := time.Now()
	for tid := 0; tid < cfg.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(tid)*104729))
			w := cfg.Workload
			// Worker registration: acquire the slot once; churn trials cycle
			// it every ChurnOps operations, timing each cycle.
			h, release := s.acquire()
			ops := int64(0)
			cycles, spentNs := int64(0), int64(0)
			for !stop.Load() {
				key := rng.Int63n(w.KeyRange)
				p := rng.Intn(100)
				switch {
				case p < w.InsertPct:
					h.insert(key)
				case p < w.InsertPct+w.DeletePct:
					h.remove(key)
				default:
					h.contains(key)
				}
				ops++
				if cfg.ChurnOps > 0 && ops%int64(cfg.ChurnOps) == 0 {
					t0 := time.Now()
					release()
					h, release = s.acquire()
					spentNs += time.Since(t0).Nanoseconds()
					cycles++
				}
			}
			release()
			totalOps.Add(ops)
			churnCycles.Add(cycles)
			churnNs.Add(spentNs)
		}(tid)
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	// Snapshot before Close: the pending counters show how far reclamation
	// ran behind the workers, which is part of what the experiment measures.
	// Close then drains everything.
	st := s.stats()
	s.close()
	ops := totalOps.Load()
	res := Result{
		Config:           cfg,
		Ops:              ops,
		Throughput:       float64(ops) / elapsed.Seconds(),
		AllocatedBytes:   st.Alloc.AllocatedBytes,
		AllocatedRecords: st.Alloc.Allocated,
		Reclaimer:        st.Reclaimer,
		PoolReused:       st.Pool.Reused,
		RetirePending:    st.RetirePending,
		Unreclaimed:      st.Unreclaimed,
		ChurnCycles:      churnCycles.Load(),
		ChurnNs:          churnNs.Load(),
		Elapsed:          elapsed,
	}
	res.MopsPerSec = res.Throughput / 1e6
	return res, nil
}

// prefill inserts keys until the structure holds PrefillFraction*KeyRange
// elements, splitting the work across the trial's threads exactly as the
// paper does before starting the timed phase.
func prefill(s set, cfg Config) {
	target := int64(float64(cfg.Workload.KeyRange) * cfg.Workload.PrefillFraction)
	if target <= 0 {
		return
	}
	var inserted atomic.Int64
	var wg sync.WaitGroup
	workers := cfg.Threads
	if workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}
	if workers < 1 {
		workers = 1
	}
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(tid)))
			h, release := s.acquire()
			defer release()
			for inserted.Load() < target {
				key := rng.Int63n(cfg.Workload.KeyRange)
				if h.insert(key) {
					inserted.Add(1)
				}
			}
		}(tid)
	}
	wg.Wait()
}

// DefaultThreadCounts returns the thread counts used by the experiments on
// this machine: 1, 2, 4, ... up to max (the paper sweeps 1..16 on an
// 8-hardware-thread machine, i.e. up to 2x oversubscription).
func DefaultThreadCounts(max int) []int {
	if max <= 0 {
		max = 2 * runtime.NumCPU()
	}
	var out []int
	for t := 1; t <= max; t *= 2 {
		out = append(out, t)
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// Recover converts panics from misconfigured trials into errors (used by the
// CLI so one bad configuration does not abort a whole sweep).
func runSafely(cfg Config) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			if n, ok := v.(neutralize.Neutralized); ok {
				err = fmt.Errorf("bench: unexpected neutralization escaped to the harness: %v", n)
				return
			}
			err = fmt.Errorf("bench: trial panicked: %v", v)
		}
	}()
	return RunTrial(cfg)
}

// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 7): throughput of a lock-free BST and a lock-based
// skip list under the reclamation schemes, thread counts, operation mixes,
// key ranges and allocation regimes of Experiments 1–3, the memory
// footprint of Figure 9, and the stalled-thread probe behind the paper's
// bounded-garbage claim. Everything else is measured by the repository's
// benchmark (benchmark/README.md).
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
	"repro/internal/ds/skiplist"
	"repro/internal/neutralize"
	"repro/internal/recordmgr"
)

// Data structure names accepted by Config.DataStructure.
const (
	DSBST      = "bst"
	DSSkipList = "skiplist"
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
	// StallThreads configures the fault-probe trials (DataStructure ==
	// DSFaultProbe): how many of the trial's threads are parked while pinned
	// during the stalled measurement phase (see internal/faultinject.Probe).
	// Must be < Threads; ignored by every other data structure.
	StallThreads int
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
	// Unreclaimed is the retired-but-not-freed record count at the end of
	// the trial (ManagerStats.Unreclaimed).
	Unreclaimed int64
	// FaultStalled is the number of threads parked while pinned during a
	// fault-probe trial's stalled phase (0 elsewhere). FaultSlopeDelta is the
	// stall-induced Unreclaimed growth per operation (stalled slope minus
	// baseline slope), FaultBounded its classification (delta under the
	// slack: a stalled thread does not make unreclaimed memory grow with
	// continued operation) and FaultMaxUnreclaimed the largest Unreclaimed
	// sample of the probe.
	FaultStalled        int
	FaultSlopeDelta     float64
	FaultBounded        bool
	FaultMaxUnreclaimed int64
	// Elapsed is the measured duration of the timed phase.
	Elapsed time.Duration
}

// set is the minimal data structure interface the harness drives. close
// shuts the Record Manager down once the workers are joined (flush → limbo
// force-free).
type set interface {
	// acquire binds the calling goroutine to a vacant thread slot and returns
	// the slot-bound operations plus the release function. A worker acquires
	// once at registration — the measured loop then runs through the data
	// structure's thread handle, exactly like a real client would.
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

// SupportedSchemes returns the reclamation schemes the given data structure
// can run with: every implemented scheme, except that the skip list's
// lock-based updates cannot use the neutralizing DEBRA+ (interrupting a lock
// holder is unsafe — the limitation the paper notes for lock-based
// structures). Beyond the paper's selection, the panels include the EBR and
// QSBR ablation columns.
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
		Scheme:    cfg.Scheme,
		Threads:   cfg.Threads,
		Allocator: cfg.Allocator,
		UsePool:   cfg.UsePool,
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
	default:
		return nil, fmt.Errorf("bench: unknown data structure %q", cfg.DataStructure)
	}
}

// RunTrial prefills the data structure and runs one timed trial, returning
// its measurements.
func RunTrial(cfg Config) (Result, error) {
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
	if cfg.DataStructure == DSFaultProbe {
		// The fault-probe arm runs the two-phase stalled unreclaimed-growth
		// probe; op counts are fixed, not duration-scaled.
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
		stop     atomic.Bool
		totalOps atomic.Int64
		wg       sync.WaitGroup
	)
	start := time.Now()
	for tid := 0; tid < cfg.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(tid)*104729))
			w := cfg.Workload
			h, release := s.acquire()
			ops := int64(0)
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
			}
			release()
			totalOps.Add(ops)
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
		Unreclaimed:      st.Unreclaimed,
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
	workers := min(cfg.Threads, runtime.NumCPU())
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

// runSafely runs one trial, converting panics from misconfigured trials into
// errors so one bad configuration does not abort a whole sweep.
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

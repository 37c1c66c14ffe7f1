// Package recordmgr provides convenience constructors that assemble a
// complete Record Manager (allocator + pool + reclaimer) from a scheme name.
// This is the "change a single line of code" experience described in
// Section 6 of the paper: a data structure receives a *core.RecordManager[T]
// and neither knows nor cares which reclamation scheme is behind it.
package recordmgr

import (
	"fmt"
	"sort"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/neutralize"
	"repro/internal/pool"
	"repro/internal/raceenabled"
	"repro/internal/reclaim/debra"
	"repro/internal/reclaim/debraplus"
	"repro/internal/reclaim/ebr"
	"repro/internal/reclaim/epoch"
	"repro/internal/reclaim/hp"
	"repro/internal/reclaim/none"
	"repro/internal/reclaim/qsbr"
)

// Scheme names accepted by Build and NewReclaimer.
const (
	SchemeNone      = "none"
	SchemeEBR       = "ebr"
	SchemeQSBR      = "qsbr"
	SchemeDEBRA     = "debra"
	SchemeDEBRAPlus = "debra+"
	SchemeHP        = "hp"
)

// Schemes returns the list of supported scheme names in a stable order.
func Schemes() []string {
	s := []string{SchemeNone, SchemeEBR, SchemeQSBR, SchemeDEBRA, SchemeDEBRAPlus, SchemeHP}
	sort.Strings(s)
	return s
}

// AllocatorKind selects the allocator used by Build.
type AllocatorKind string

// Allocator kinds.
const (
	// AllocBump pre-reserves slabs per thread (Experiments 1 and 2).
	AllocBump AllocatorKind = "bump"
	// AllocHeap allocates each record from the Go runtime (Experiment 3's
	// malloc stand-in).
	AllocHeap AllocatorKind = "heap"
)

// Config describes the Record Manager to build.
type Config struct {
	// Scheme is the reclamation scheme name (see Schemes).
	Scheme string
	// Threads is the nominal number of worker threads.
	Threads int
	// MaxThreads is the capacity of the thread-slot registry: the total
	// number of worker slots goroutines can bind to with
	// AcquireHandle/ReleaseHandle. 0 defaults to Threads. Setting
	// MaxThreads > Threads gives a churning goroutine population headroom
	// beyond the nominal worker count; every per-thread component (scheme,
	// allocator, pool, handles) is sized for MaxThreads worker slots.
	MaxThreads int
	// Allocator selects bump or heap allocation; defaults to bump.
	Allocator AllocatorKind
	// UsePool controls whether reclaimed records are reused. When false the
	// reclaimer's free sink discards records (Experiment 1's configuration).
	UsePool bool
	// FaultPlan, when non-nil, interposes the deterministic fault plane on
	// the reclaimer (faultinject.Wrap): the plan's triggers inject stalls
	// and crashes at the scheme's operation boundaries, per tid, exactly as
	// scheduled. Nil (the default, and every production configuration)
	// adds nothing to any path. See internal/faultinject.
	FaultPlan *faultinject.Plan
}

// Build assembles a Record Manager for record type T according to cfg.
func Build[T any](cfg Config) (*core.RecordManager[T], error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("recordmgr: Threads must be >= 1, got %d", cfg.Threads)
	}
	if cfg.MaxThreads < 0 {
		return nil, fmt.Errorf("recordmgr: MaxThreads must be >= 0, got %d", cfg.MaxThreads)
	}
	if cfg.MaxThreads > 0 && cfg.MaxThreads < cfg.Threads {
		return nil, fmt.Errorf("recordmgr: MaxThreads (%d) must be >= Threads (%d)", cfg.MaxThreads, cfg.Threads)
	}
	// Worker slots: the slot-registry capacity every per-thread component is
	// sized for.
	workers := max(cfg.Threads, cfg.MaxThreads)

	var alloc core.Allocator[T]
	switch cfg.Allocator {
	case AllocBump, "":
		alloc = arena.NewBump[T](workers, 0)
	case AllocHeap:
		alloc = arena.NewHeap[T](workers)
	default:
		return nil, fmt.Errorf("recordmgr: unknown allocator kind %q", cfg.Allocator)
	}

	var p core.Pool[T]
	var sink core.FreeSink[T]
	if cfg.UsePool {
		pl := pool.New(workers, alloc)
		p = pl
		sink = pl
	} else {
		sink = pool.NewDiscard[T](workers)
	}

	rec, err := NewReclaimer[T](cfg.Scheme, workers, sink, nil)
	if err != nil {
		return nil, err
	}
	if cfg.FaultPlan != nil {
		// Interpose the fault plane between the manager and the scheme: the
		// wrapper forwards the whole reclaimer surface (limbo draining,
		// occupancy) and wraps the per-thread handles.
		rec = faultinject.Wrap(rec, cfg.FaultPlan)
	}
	return core.NewRecordManager(alloc, p, rec), nil
}

// MustBuild is Build that panics on error; convenient in examples and tests.
func MustBuild[T any](cfg Config) *core.RecordManager[T] {
	m, err := Build[T](cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NewReclaimer constructs the named reclamation scheme for n threads with
// the given free sink. domain may be nil (a private one is created for
// DEBRA+).
func NewReclaimer[T any](scheme string, n int, sink core.FreeSink[T], domain *neutralize.Domain) (core.Reclaimer[T], error) {
	switch scheme {
	case SchemeNone, "":
		return none.New[T](n), nil
	case SchemeEBR:
		return ebr.New[T](n, sink), nil
	case SchemeQSBR:
		return qsbr.New[T](n, sink), nil
	case SchemeDEBRA:
		return debra.New[T](n, sink), nil
	case SchemeDEBRAPlus:
		var opts []epoch.Option
		if domain != nil {
			opts = append(opts, debraplus.WithDomain(domain))
		}
		if raceenabled.Enabled {
			// The Go race detector cannot model the asynchronous-signal
			// semantics DEBRA+ simulates cooperatively: between a signal being
			// sent (at which point the epoch may advance past the target and
			// records may be reclaimed and recycled) and the target consuming
			// it at its next checkpoint, the doomed operation keeps executing
			// and may read records another thread is re-initialising. Those
			// reads are discarded with the neutralized operation — the C++
			// original interrupts the thread with a real signal, so the window
			// does not exist there — but they are genuine unsynchronised
			// accesses, which the detector rightly reports. Under `-race`,
			// neutralization is therefore disabled and DEBRA+ degrades to
			// DEBRA-equivalent (still safe) reclamation; tests that force
			// neutralization skip themselves when raceenabled.Enabled.
			opts = append(opts, debraplus.WithNeutralizationDisabled())
		}
		return debraplus.New[T](n, sink, opts...), nil
	case SchemeHP:
		return hp.New[T](n, sink), nil
	default:
		return nil, fmt.Errorf("recordmgr: unknown scheme %q (supported: %v)", scheme, Schemes())
	}
}

// Properties returns the Figure 2 rows for every implemented scheme plus the
// reference rows for the surveyed-but-not-implemented schemes.
func Properties() []core.Properties {
	var out []core.Properties
	for _, s := range []string{SchemeHP, SchemeEBR, SchemeQSBR, SchemeDEBRA, SchemeDEBRAPlus, SchemeNone} {
		r, err := NewReclaimer[int](s, 1, pool.NewDiscard[int](1), nil)
		if err != nil {
			continue
		}
		out = append(out, r.Props())
	}
	out = append(out, core.ReferenceProperties()...)
	return out
}

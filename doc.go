// Package repro is a Go reproduction of "Reclaiming Memory for Lock-Free
// Data Structures: There has to be a Better Way" (Trevor Brown, PODC 2015):
// DEBRA, DEBRA+, the Record Manager abstraction, the competing reclamation
// schemes the paper evaluates against and the data structures used in its
// evaluation. cmd/reclaimbench regenerates the paper's figures (Experiments
// 1–3, the Figure 9 memory footprint, and the stalled-thread claim); `go run
// ./benchmark` measures everything else, end to end and per layer, with
// every workload and metric defined in benchmark/README.md.
//
// Beyond the paper's own benchmarks, internal/ds/hashmap adds a lock-free
// split-ordered hash map with incremental resizing (and an Upsert/replace
// operation) as the first structure demonstrating that the Record Manager
// generalises: it is programmed once against the abstraction and runs with
// all six reclamation schemes (none, ebr, qsbr, debra, debra+, hp).
//
// # Sharded reclamation domains and batched retirement
//
// The Record Manager stack scales past one global reclamation domain. A
// core.ShardSpec partitions the dense thread ids of a Record Manager into N
// shards (recordmgr.Config.Shards; -shards on cmd/kvserver) under a tid→shard
// placement policy (core.PlaceBlock keeps contiguous worker ids together,
// the NUMA-style default; core.PlaceStripe round-robins — the
// recordmgr.Config.Placement / -placement knob). The four epoch schemes are
// policies on one machine, internal/reclaim/epoch, which verifies shard by
// shard — the caller's own members, then one padded summary word per shard,
// with a direct member scan for a shard whose summary lags; what the machine
// owns and what each scheme adds to it is docs/ARCHITECTURE.md, "The epoch
// schemes". Safety is unchanged: no record is freed until every thread in
// every shard has been verified quiescent or at the current epoch; shards=1
// reproduces the classic single-domain behaviour exactly. Hazard pointers
// and the leaking baseline are already fully distributed, so for them the
// spec is informational.
//
// Retirement batches the same way: core.WithRetireBatching gives the Record
// Manager per-thread deferred-retire buffers (recordmgr.Config.RetireBatch;
// -retirebatch on cmd/kvserver) that hand full blocks to the scheme through
// core.Reclaimer.RetireBlock — an O(1) block splice per batch in every
// scheme (core.RetireChain) — and retire the sub-block remainder of a flush
// record by record.
//
// # The quiescent-retire contract
//
// The epoch schemes' retire paths are only safe under an active
// announcement: a retire loads the current epoch, and it is the caller's own
// announced, non-quiescent state that bounds how stale that load can be by
// the time the record lands in a limbo bag — without it the epoch can
// advance arbitrarily in the window, racing the advance winner's drain of
// that very bag. EBR, QSBR, DEBRA and DEBRA+ therefore panic on a Retire or
// RetireBlock from a quiescent thread and implement core.Reclaimer's
// PinRetire/UnpinRetire as a pin-while-retiring entry point without the
// scan, advance, rotation or neutralization side effects of a full
// operation boundary. Callers rarely see any of this: RecordManager.Retire
// routes quiescent callers (data structure postambles after EnterQstate,
// DEBRA+ recovery paths) through the pin automatically, and
// RecordManager.FlushRetired pins around the hand-off of a parked batch —
// which is what makes its documented "safe from quiescent shutdown paths"
// contract actually hold.
//
// # Shutdown
//
// Retired records can sit in two places besides the free sink: the
// per-thread deferred-retire buffers and the scheme's limbo bags.
// ManagerStats reports both: Unreclaimed = scheme limbo + deferred-retire
// buffers (what the benchmark's unreclaimed_mean_records samples; scheme
// limbo alone understates it). Shutdown follows a fixed ordering — workers
// quiesce, buffers flush, limbo is force-freed: RecordManager.Close performs
// the last two steps (the force-free through core.LimboDrainer, which every
// reclaiming scheme implements for the all-quiescent shutdown case), after
// which Retired == Freed.
//
// # Thread lifecycle
//
// The Record Manager's per-thread state — scheme announcement slots, limbo
// bags, pool caches, retire buffers, handle tables — is sized once, at
// construction, for a fixed capacity of dense thread ids
// (recordmgr.Config.MaxThreads, defaulting to Threads). Which goroutine
// owns which id is decided at runtime: a core.SlotRegistry hands slots out
// through a lock-free free list. RecordManager.AcquireHandle() binds the
// calling goroutine to a vacant slot and returns its ThreadHandle — the only
// way to issue a per-thread operation — and ReleaseHandle returns the slot
// for reuse. The data structures expose the same pair
// (AcquireHandle/ReleaseHandle) and their operations are methods of the
// handle it returns, so a server's request goroutines can come and go
// without any tid bookkeeping (examples/kvstore is the usage demo;
// internal/kvservice is the production-shaped version). A fresh manager
// hands out slots 0, 1, 2, … in order.
//
// Release is only legal from a quiescent, flushed state — the slot-registry
// sibling of the quiescent-retire contract: ReleaseHandle panics when the
// slot's announcement is still active (or, under hazard pointers, a
// protection slot is still held), then drains the slot's deferred-retire
// buffer under the scheme's retire pin and hands the slot's private pool
// cache back to the shared pool (core.ThreadDrainer). Only after that is
// the slot pushed onto the free list, and the push/pop CAS pair is the
// happens-before edge to the next acquirer — so a reused tid can never
// inherit a stale epoch or hazard-pointer announcement, and starts from the
// same state a freshly constructed slot has.
//
// Vacant slots are quiescent by that contract, so the schemes' scan paths
// skip them: per-shard occupancy summary words (maintained by the registry,
// exposed through core.ShardMap) let the epoch machine verify an idle shard
// in O(1) and a shard's only live occupant skip its member scan entirely,
// every member scan passes over vacant slots for free (keeping DEBRA's
// incremental cycle proportional to the live population, not the capacity,
// and DEBRA+ from ever signalling a vacant slot), and the hazard-pointer
// reclamation scan skips vacant threads' slot arrays. The remaining race —
// a scanner observes a slot vacant while a goroutine concurrently acquires
// it — is exactly the quiescent-thread-wakes race every scheme already
// tolerates. The benchmark's core.slot_acquire_ns row measures one
// acquire/release cycle.
//
// # Hot-path cost model
//
// The paper's performance claim is that DEBRA makes every reclamation
// operation O(1) with tiny constants, and Hart et al.'s reclamation study
// shows exactly those per-operation constants dominating scheme
// comparisons. The Record Manager stack therefore keeps its own per-op
// constants explicit — and small:
//
//   - Statistics counters are single-writer core.Counter cells (a plain
//     read of the owner's last value plus an atomic publishing store),
//     grouped into padded per-thread blocks. The stack used to pay a
//     LOCK-prefixed atomic.Int64.Add — a full read-modify-write — on four
//     or more per-thread counters per data structure operation (scheme
//     retired/freed/scans, pool reused/freed, allocator allocated,
//     retire-buffer pending); none remain on the hot path, enforced by the
//     guard test in internal/core. Genuinely multi-writer cells (the global
//     epoch and grace clocks, announcement words, shared-stack depths)
//     stay atomic.
//   - Per-thread handles devirtualize the fast path. A worker acquires its
//     ThreadHandle once at registration; the handle caches direct pointers
//     to the slot's deferred-retire buffer, pool fast path
//     (core.PoolHandle), the scheme's per-slot view (core.ReclaimerHandle —
//     announcement slot, limbo state, shard member list, counters resolved
//     at construction) and whether its retires need a pin. A steady-state
//     operation performs zero threads[tid] slice indexing and at most one
//     interface call per primitive; a batched Retire is a buffer append
//     with no interface call at all. All four data structures thread
//     handles through their operation bodies and expose the DS-level Handle
//     types their operations are methods of.
//
// What one steady-state operation costs per scheme, in Record Manager
// primitives (data structure work excluded): none — nothing but the leak
// counter; epoch schemes (EBR, QSBR, DEBRA, DEBRA+) — one announcement
// store at each operation boundary plus the scheme's (possibly amortised)
// scan share, with DEBRA/DEBRA+ amortising to O(1) checks; HP — one
// sequentially consistent announcement store per record visited (the
// paper's dominant HP cost) plus an amortised scan per retireThreshold
// retires. Retirement adds a bag append (plus, per batch, one O(1) block
// splice under batching); allocation is a pool bag pop. The benchmark's
// core.pin_unpin_ns and core.alloc_retire_ns.<scheme> rows measure these
// per-op costs directly.
//
// # The KV service layer
//
// The stack's deployment story is concrete: internal/kvservice serves N
// partitioned hash map namespaces (internal/ds/hashmap.Partitioned — keys
// route to a partition by the high bits of the same hash whose low bits
// index buckets, one Record Manager per partition) behind the
// length-prefixed binary protocol of internal/kvwire (GET/PUT/DEL/STATS;
// specified in docs/PROTOCOL.md). Every connection goroutine follows the
// dynamic-binding contract above: it acquires a slot in each partition for
// a bounded burst of requests and releases at the burst boundary, so
// connections can vastly outnumber slots and an idle or slow client holds
// no reclamation state at all. cmd/kvserver and cmd/kvload are the server
// and load-generator binaries (docs/OPERATIONS.md covers every flag,
// scheme selection and how to read the latency tail), and the benchmark's
// svc_lockstep_read and svc_pipelined_churn workloads run the pair
// in-process, failing any run whose server does not exit with
// Retired == Freed.
//
// # Fault injection and graceful degradation
//
// The paper's motivating failure — one stalled thread making an epoch
// scheme's unreclaimed memory grow without bound — is reproduced on
// demand, not waited for. internal/faultinject is a deterministic fault
// plane over the reclaimer: a Plan of seeded, replayable triggers (timed
// stalls, gated "crash" parks that hold a victim mid-operation until
// released, derived chaos schedules) fires at the scheme's operation
// boundaries. recordmgr.Config.FaultPlan interposes it with
// faultinject.Wrap, which forwards the block-retirement and sharding
// capability interfaces so the wrapped stack behaves identically; with no
// plan there is no wrapper and no cost. faultinject.Probe runs the
// two-phase measurement — unreclaimed growth per operation with and
// without a stalled thread — and classifies each scheme bounded or
// unbounded by the slope delta: DEBRA+ (neutralization) and HP (bounded by
// construction) stay flat, EBR/QSBR/DEBRA approach one record per
// operation behind the stalled announcement. `reclaimbench -experiment
// faults` sweeps the probe over every scheme and stall count and prints
// the verdict per cell.
//
// The service layer holds up its own end: every read and write carries a
// deadline, slot acquisition is bounded in time and queue depth with an
// ERR_BUSY fast-fail that leaves the connection usable, and a background
// reaper closes peers that complete no frame — so a dead, stalled or
// malicious peer can never park a handler goroutine or the worker slots
// it would bind. internal/kvload retries transient failures with
// exponential backoff and jitter, reconnects through connection loss, and
// reports the recovery work (busy/retries/reconnects/gaveup) in its
// results; its chaos flags (mid-frame stalls, connection kills) turn it
// into the adversary, and its tests run them against a live server that
// must still shut down with Retired == Freed. docs/OPERATIONS.md ("Fault
// tolerance") is the operator's view.
//
// # Static analysis
//
// The contracts above are also proven at build time. cmd/reclaimvet is a
// multichecker (internal/analysis, self-contained on the standard
// library) that typechecks every package in the module — test files
// included — and runs five repository-specific analyzers over the result:
// retirepin (raw Retire/RetireBlock/FlushRetired call sites must be
// dominated by LeaveQstate/PinRetire or go through the auto-pinning
// ThreadHandle wrappers — the static face of the quiescent-retire panic), handlepair (an acquired ThreadHandle must
// reach ReleaseHandle on every non-panic path, and a deferred release
// must not sit inside the acquire loop), singlewriter (per-thread stat
// carriers declare their counters as core.Counter and nothing applies an
// atomic read-modify-write to them — the single-writer hot-path cost
// model, previously a grep-based test), protectorder (in internal/ds
// packages a pointer loaded before Protect is re-validated before
// dereference and never dereferenced after Unprotect — the hazard-pointer
// idiom), and exporteddoc (exported
// identifiers in the API-surface packages carry doc comments). Deliberate
// exceptions are annotated //lint:allow <analyzer> <reason>; the driver
// rejects bare, reasonless, unknown-analyzer and stale markers, so the
// escape hatch cannot rot. Each analyzer ships with golden-file tests
// under internal/analysis/testdata (a separate module, invisible to
// go build ./...) proving it fires on seeded violations.
//
// The implementation lives under internal/ (see docs/ARCHITECTURE.md for
// the layer map and the stack's two load-bearing contracts stated as
// invariants); runnable entry points are the programs under cmd/ and
// examples/ (indexed in examples/README.md) and the benchmark under
// benchmark/. CI (.github/workflows/ci.yml) and local development share the
// Makefile targets, each described there in one line.
package repro

// Package hashmap implements a lock-free hash map over the Record Manager
// abstraction: a split-ordered list (Shalev and Shavit's recursive
// split-ordering) of Michael-style lock-free bucket lists, with lock-free
// incremental resizing. It is the first data structure of this module that
// is not part of the paper's own evaluation, added to demonstrate that the
// Record Manager generalises beyond the paper's benchmarks: the map is
// programmed once against core.RecordManager and every reclamation scheme in
// the module (none, ebr, qsbr, debra, debra+, hp) drops in unchanged.
//
// Reclamation-relevant structure:
//
//   - Key/value nodes and deletion markers are allocated, retired and
//     recycled through one Record Manager, so retired nodes may be reused
//     while slow readers still hold references to them: exactly the situation
//     safe memory reclamation must make survivable.
//   - Bucket heads ("dummies") are not Record Manager records. A head is
//     never removed, so it is never retired and nothing about it needs a
//     grace period; it is an element of the bucket directory (bucket 0's is a
//     field of Map), found by arithmetic, and it is a Node so that the list
//     runs through it like through any other. Heads are the stable re-entry
//     points that let a restarted traversal re-enter its bucket without
//     re-running the whole operation from a global head.
//   - Under hazard-pointer style schemes (NeedsPerRecordProtection) the
//     traversal maintains a sliding pred/curr/next window of protections,
//     validating each announcement against the link it was read from and
//     restarting the operation when validation fails.
//   - Under the epoch schemes Get does none of that: it walks from the
//     bucket head straight through marked and retired nodes without a CAS
//     and stops at the node it was looking for (lookup), which is what an
//     epoch announcement buys a search.
//   - Under DEBRA+ (SupportsCrashRecovery) every operation body is wrapped
//     in a neutralization recovery: allocation happens in a quiescent
//     preamble, the result of every CAS that takes hold is captured in a
//     local before any further checkpoint, and recovery inspects only that
//     local state — it never touches shared records, so it needs no recovery
//     protections.
//
// Resizing is incremental and lock-free: the bucket directory is a two-level
// table of segments, growing the table publishes the next segment and then
// CASes the bucket count, and a new bucket's head is spliced into the
// split-ordered list on first access (no node is ever rehashed or moved).
//
// A node stores no user key. A regular node's split-order key is its mixed
// hash bit-reversed, and both steps are bijections, so the sokey is the key
// (Node.Key inverts it) and no two regular nodes share one. Bucket b's head
// carries b bit-reversed, which is at most the sokey of every key in the
// bucket and equal to exactly one: the key whose hash is b. The list is
// sorted by (sokey, rank), where a head ranks before a regular node, so
// placing a node against a search target reads its kind only on a sokey tie.
//
// # Entering a bucket: the claim protocol
//
// A head's meta word starts at zero ("unclaimed": segment memory is zeroed).
// The first thread to enter the bucket claims the head with one CAS from zero
// to linking|slot, splices it into the list behind the bucket's parent, and
// stores kindDummy; from then on entering the bucket is one load. A thread
// that finds a head claimed by another slot does not wait: it starts from the
// nearest ancestor that is linked (bucket 0 always is), which is correct
// because the list is globally split-ordered and costs a longer walk. A
// claimer whose body restarts finds its slot in the word and resumes; a
// claimer that never returns costs that bucket the longer walk and blocks
// nobody (linkHead).
//
// # Linearization
//
// A key is in the map exactly while a regular node holding it is on the list
// — reachable from bucket 0's head — marked or not, and its binding is the
// first such node. A node is marked in one of two ways, and either freezes
// its next field: a Delete splices a marker after it, or a replacing Upsert
// splices the replacement after it (a regular node of the same sokey, which
// nothing else can be: see replaces). At most two regular nodes per key are
// on the list, adjacent, the first marked by the second; at quiescence there
// is one. An insert's find unlinks a marked node at its position before it
// reports the position free or taken. The argument is about the list alone
// and holds under every scheme.
//
//   - Insert and the insert half of Upsert take effect at the CAS that links
//     the node. The predecessor is unmarked at that CAS (its next held a
//     plain successor), and only marked nodes are ever unlinked, so the node
//     is on the list.
//   - Delete marks its victim (the CAS that decides which Delete owns the
//     removal) and takes effect when the victim is unlinked, by the deleter
//     or by any helper's find. Delete returns only after that: either its own
//     unlink CAS won, or it runs one more find to the key's position, and a
//     find that completes has unlinked every marked node it met. So a removal
//     that has been reported cannot be contradicted by a later read.
//   - A replacing Upsert marks the old node with the new one (old -> new ->
//     successor; the CAS that decides which update owns the old node) and
//     takes effect when the old node is unlinked, by the Upsert's own CAS on
//     the predecessor or by any helper's find: at that one CAS the old
//     binding leaves and the new one, already linked behind it, becomes the
//     first. It returns only after that, exactly as Delete does, so the key
//     is never absent and an overwrite that has been reported cannot be
//     contradicted by a later read.
//   - Get under the epoch schemes is a walk that never checks a mark. Every
//     node it reaches was on the list at some moment since the walk began. By
//     induction: the head always is. If the node the walk stands on is still
//     linked when its next is read, so is its successor. If it was unlinked
//     in the meantime, its next froze when it was marked (node -> marker ->
//     successor, or old -> new), and at the instant before the unlink that
//     next was on the list. For a marker that is because a node's successor
//     cannot be unlinked while the node is marked but linked: unlinking
//     CASes the predecessor's next from the victim, and the only link to that
//     successor is the marker's next, which no CAS ever targets. A
//     replacement is itself the next node, on the list through old. The step
//     after it, old -> new -> s, holds because new.next is not CASed while
//     old is linked: every find that reaches new has unlinked old on the way,
//     and every update that finds old marked restarts. So new keeps s, the
//     successor old had, until old leaves, and a key never has a third node.
//     A Get that returns a node linearizes at a moment the node was linked;
//     the walk stops at the first node of its key, which is the binding until
//     it is unlinked, and never reads that node's next. A Get that passes the
//     key's position between two nodes linearizes at a moment they were
//     neighbours on the list.
//   - Get under hazard pointers is find: it reports a node present only if
//     it saw it unmarked, hence linked and the binding, and unlinks marked
//     nodes itself before reporting them absent or stepping to their
//     replacement.
//
// # Value storage
//
// A node's value never changes while the node is reachable: a replacing
// Upsert publishes a new node. So the storage a value refers to (a []byte's
// array, say) can share its node's grace period, and UpsertFunc reuses it:
// its fill builds the new value from what the published record held when the
// scheme last freed it. Storage is reused only there, and only after the
// scheme has freed the record, so no traversal can still reach it. A map
// filled that way hands its values' storage to the map — a value passed to
// Insert or Upsert may come back to a later fill — and is read with View,
// whose fn runs while the node is still protected; a value Get or Upsert
// returns may be overwritten once its node is freed.
package hashmap

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/neutralize"
)

// maxSegments bounds the segment directory. Segment p holds the buckets
// [2^p, 2^(p+1)), so the directory supports 2^maxSegments buckets — far
// beyond anything the benchmarks reach.
const maxSegments = 40

// Defaults for the tuning options.
const (
	// DefaultInitialBuckets is the bucket count a map starts with.
	DefaultInitialBuckets = 8
	// DefaultMaxLoad is the mean nodes-per-bucket threshold above which the
	// table doubles (growPatienceShift says how soon).
	DefaultMaxLoad = 4
	// DefaultMaxBuckets caps table growth.
	DefaultMaxBuckets = 1 << 26
)

// Option tunes a Map at construction time.
type Option func(*config)

type config struct {
	initialBuckets uint64
	maxLoad        int64
	maxBuckets     uint64
}

// WithInitialBuckets sets the initial bucket count (rounded up to a power of
// two). Pre-sizing to the expected element count divided by the load factor
// removes the resize phase from a workload; the default grows from
// DefaultInitialBuckets and exercises incremental resizing instead.
func WithInitialBuckets(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.initialBuckets = ceilPow2(uint64(n))
	}
}

// WithMaxLoad sets the load factor (mean chain length) that triggers a table
// doubling.
func WithMaxLoad(l int) Option {
	return func(c *config) {
		if l < 1 {
			l = 1
		}
		c.maxLoad = int64(l)
	}
}

// WithMaxBuckets caps the table size (rounded up to a power of two).
func WithMaxBuckets(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.maxBuckets = ceilPow2(uint64(n))
	}
}

// growPatienceShift sets how long a table stays over its load limit before
// it doubles: until maxLoad·size>>growPatienceShift inserts (1/64 of the
// limit) have found it there. A map that grows passes the limit once and
// doubles that many inserts later; a map whose count hovers at the limit
// doubles once it has come back over it that often. Doubling at the insert
// that crosses the limit would put a table-sized allocation on the limit
// itself, and a map filled with a power of two of keys reaches its limits
// exactly where its user's phases end — on map_read_mostly within a few
// hundred keys of the end of each worker's prefill, where a 1–2 MiB segment
// more or less decides what the runtime's next collection still finds alive
// (docs/ARCHITECTURE.md, "Record layout and the read path") — or never
// leaves it, and then a few hundred keys decide the table's size and speed.
// Tables below 64/maxLoad buckets double at the crossing insert.
const growPatienceShift = 6

func ceilPow2(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len64(v-1)
}

// segment is one block of the bucket directory: the heads of the buckets
// [2^p, 2^(p+1)), embedded, so entering a bucket is one load of its head and
// not a load of a slot and then of the dummy it points at. The memory arrives
// zeroed, which is every head's unclaimed state.
type segment[V any] struct {
	buckets []Node[V]
}

func newSegment[V any](p int) *segment[V] {
	return &segment[V]{buckets: make([]Node[V], 1<<p)}
}

// spareSlot is a per-thread scratch record, padded to keep the single-writer
// slots off each other's cache lines: the node or marker an Insert or Delete
// pre-allocated and did not publish (the key was present, or absent).
// The next update of the slot takes it instead of paying Allocate+Deallocate
// per call. Every update takes before it parks and parks at most one record,
// so one slot is enough.
type spareSlot[V any] struct {
	rec *Node[V]
	_   [core.PadBytes]byte
}

// threadStats is one thread's single-writer data-structure-level counters
// (not reclamation counters): written only by the owning slot (core.Counter
// contract), read racily by Stats, padded so neighbouring slots' cells do
// not share cache lines. These used to be four global atomic.Int64 cells —
// a LOCK-prefixed RMW on a line shared by every thread, once per restart,
// unlink, resize and dummy splice.
type threadStats struct {
	restarts core.Counter // operation restarts (CAS failures, HP validation failures)
	unlinks  core.Counter // marked nodes physically unlinked
	resizes  core.Counter // successful table doublings
	dummies  core.Counter // bucket heads spliced into the list
	_        [core.PadBytes]byte
}

// Stats is a snapshot of the map's operation counters.
type Stats struct {
	Restarts int64
	Unlinks  int64
	Resizes  int64
	Dummies  int64
}

// Map is a lock-free hash map from int64 keys to values of type V.
// Operations are issued through a Handle a goroutine acquires with
// AcquireHandle. The whole int64 key range is usable (the split-ordered list
// needs no sentinel keys).
type Map[V any] struct {
	mgr  *Manager[V]
	head Node[V] // bucket 0's head: the head of the split-ordered list

	size atomic.Uint64 // current bucket count (power of two)

	maxLoad    int64
	maxBuckets uint64

	segments [maxSegments]atomic.Pointer[segment[V]]
	spares   []spareSlot[V]
	handles  []Handle[V]

	// perRecord caches whether the reclaimer needs Protect/validate per
	// record; crashRecovery caches whether bodies can be neutralized.
	perRecord     bool
	crashRecovery bool

	// visit, when non-nil, is called for every node a traversal has made
	// safe to access (set before concurrent use; see SetVisitHook).
	visit func(tid int, n *Node[V])

	stats []threadStats

	// The words every insert or delete writes, padded off the lines above:
	// every operation loads size, segments and head, and an RMW here on one
	// core would otherwise evict them from the other's cache.
	_        [core.PadBytes]byte
	count    atomic.Int64 // regular nodes inserted minus logically deleted
	overFull atomic.Int64 // inserts that found the table over its load limit since it last doubled
	growing  atomic.Bool  // a thread is allocating the next segment (maybeGrow)
	_        [core.PadBytes]byte
}

// New creates an empty map whose records are managed by mgr, for the given
// number of worker threads. When the manager has more worker slots than
// threads (recordmgr.Config.MaxThreads), the per-slot tables cover every
// slot.
func New[V any](mgr *Manager[V], threads int, opts ...Option) *Map[V] {
	if mgr == nil {
		panic("hashmap: New requires a RecordManager")
	}
	if threads <= 0 {
		panic("hashmap: New requires threads >= 1")
	}
	if ws := mgr.WorkerSlots(); ws > threads {
		threads = ws
	}
	cfg := config{
		initialBuckets: DefaultInitialBuckets,
		maxLoad:        DefaultMaxLoad,
		maxBuckets:     DefaultMaxBuckets,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxBuckets < cfg.initialBuckets {
		cfg.maxBuckets = cfg.initialBuckets
	}
	if cfg.maxBuckets > 1<<(maxSegments-1) {
		cfg.maxBuckets = 1 << (maxSegments - 1)
	}
	h := &Map[V]{
		mgr:           mgr,
		maxLoad:       cfg.maxLoad,
		maxBuckets:    cfg.maxBuckets,
		spares:        make([]spareSlot[V], threads),
		perRecord:     mgr.NeedsPerRecordProtection(),
		crashRecovery: mgr.SupportsCrashRecovery(),
	}
	h.head.meta.Store(kindDummy)
	for p := 0; 1<<p < cfg.initialBuckets; p++ {
		h.segments[p].Store(newSegment[V](p))
	}
	h.size.Store(cfg.initialBuckets)
	h.stats = make([]threadStats, threads)
	h.handles = make([]Handle[V], threads)
	return h
}

// Handle is one worker slot's view of the map and the only way to operate on
// it: the Record Manager thread handle and the slot's scratch state bound at
// AcquireHandle, so steady-state operations index no per-thread slices and
// pay at most one interface call per reclamation primitive. Acquire it once
// per goroutine and call the operation methods on it.
type Handle[V any] struct {
	h     *Map[V]
	rm    *core.ThreadHandle[Node[V]]
	spare *spareSlot[V]
	st    *threadStats
	tid   int
}

// AcquireHandle binds the calling goroutine to a vacant worker slot of the
// map's Record Manager and returns the slot's operation handle. Release it
// with ReleaseHandle once the goroutine is done;
// the slot — and everything cached under its tid — is then reused by later
// acquirers.
func (h *Map[V]) AcquireHandle() *Handle[V] {
	rm := h.mgr.AcquireHandle()
	return h.bindHandle(rm)
}

// TryAcquireHandle is AcquireHandle that reports slot exhaustion instead of
// panicking, for callers that can back off and retry (e.g. a server admitting
// more connections than worker slots).
func (h *Map[V]) TryAcquireHandle() (*Handle[V], bool) {
	rm, ok := h.mgr.TryAcquireHandle()
	if !ok {
		return nil, false
	}
	return h.bindHandle(rm), true
}

// bindHandle builds the slot's operation handle for a fresh acquirer.
func (h *Map[V]) bindHandle(rm *core.ThreadHandle[Node[V]]) *Handle[V] {
	tid := rm.Tid()
	h.handles[tid] = Handle[V]{h: h, rm: rm, spare: &h.spares[tid], st: &h.stats[tid], tid: tid}
	return &h.handles[tid]
}

// ReleaseHandle returns an acquired slot to the manager's registry. The
// calling goroutine must be quiescent (every map operation leaves the thread
// quiescent, so between operations is always legal) and must not use the
// handle afterwards. The slot's parked scratch record (an unused node or
// marker), if any, is returned to the pool rather than left for the next
// occupant, so a goroutine that comes and goes strands nothing.
func (h *Map[V]) ReleaseHandle(hd *Handle[V]) {
	if r := hd.spare.rec; r != nil {
		hd.spare.rec = nil
		hd.rm.Deallocate(r)
	}
	h.mgr.ReleaseHandle(hd.rm)
}

// scratch returns an unpublished record for an update's quiescent preamble:
// the slot's parked one, else a fresh allocation.
func (hd *Handle[V]) scratch() *Node[V] {
	if r := hd.spare.rec; r != nil {
		hd.spare.rec = nil
		return r
	}
	return hd.rm.Allocate()
}

// park keeps an update's unpublished record for the slot's next update.
func (hd *Handle[V]) park(r *Node[V]) { hd.spare.rec = r }

// Tid returns the dense thread id the handle is bound to.
func (hd *Handle[V]) Tid() int { return hd.tid }

// Map returns the map the handle operates on.
func (hd *Handle[V]) Map() *Map[V] { return hd.h }

// Manager returns the map's Record Manager (for instrumentation).
func (h *Map[V]) Manager() *Manager[V] { return h.mgr }

// Stats returns a snapshot of the map's operation counters, aggregated from
// the per-thread single-writer cells (exact when the workers are quiescent,
// like every other Stats snapshot in the stack).
func (h *Map[V]) Stats() Stats {
	var s Stats
	for i := range h.stats {
		st := &h.stats[i]
		s.Restarts += st.restarts.Load()
		s.Unlinks += st.unlinks.Load()
		s.Resizes += st.resizes.Load()
		s.Dummies += st.dummies.Load()
	}
	return s
}

// Buckets returns the current bucket count.
func (h *Map[V]) Buckets() int { return int(h.size.Load()) }

// Count returns the map's element count (maintained with atomic counters;
// exact when quiescent).
func (h *Map[V]) Count() int { return int(h.count.Load()) }

// SetVisitHook installs fn to be called for every node a traversal has made
// safe to access (after protection and validation under per-record schemes).
// It exists for the reclaimtest safety harness, which uses it to assert that
// no traversal ever observes a freed record. It must be set before any
// concurrent use of the map and costs one predictable branch per visited
// node when unset. Note for neutralizing schemes (DEBRA+): a visit made
// while the thread has a neutralization signal pending belongs to a doomed
// attempt whose observations are discarded, and the hook must account for
// that (see the scheme's Domain.Pending).
func (h *Map[V]) SetVisitHook(fn func(tid int, n *Node[V])) { h.visit = fn }

func (h *Map[V]) observe(tid int, n *Node[V]) {
	if h.visit != nil {
		h.visit(tid, n)
	}
}

// --- Bucket directory -------------------------------------------------------

// headOf returns the head of bucket b >= 1, by arithmetic: segment p covers
// [2^p, 2^(p+1)), and every segment below the table size is published (New,
// maybeGrow).
func (h *Map[V]) headOf(b uint64) *Node[V] {
	p := bits.Len64(b) - 1
	return &h.segments[p].Load().buckets[b-1<<p]
}

// bucketHead returns the node a traversal of bucket b starts from: the
// bucket's head once it is on the list, else — while another thread is still
// splicing it — the head of its nearest linked ancestor. It is called inside
// an operation body: the thread is not quiescent, and ok=false propagates a
// failed find to the body, which restarts.
func (h *Map[V]) bucketHead(hd *Handle[V], b uint64) (*Node[V], bool) {
	if b == 0 {
		return &h.head, true
	}
	d := h.headOf(b)
	if d.meta.Load() == kindDummy {
		return d, true
	}
	return h.linkHead(hd, b, d)
}

// linkHead is a bucket's first touch: the claim protocol of the package
// comment. The claimer splices the head behind its parent (linked the same
// way, recursively); everyone else gets the nearest linked ancestor. The
// splice is idempotent — find reports whether the head is already on the list
// — which is what lets a claimer whose body restarted resume here.
func (h *Map[V]) linkHead(hd *Handle[V], b uint64, d *Node[V]) (*Node[V], bool) {
	mine := linkingBy(hd.tid)
	m := d.meta.Load()
	if m == kindUnclaimed {
		if d.meta.CompareAndSwap(kindUnclaimed, mine) {
			m = mine
		} else {
			m = d.meta.Load()
		}
	}
	if m == kindDummy {
		return d, true
	}
	start, ok := h.bucketHead(hd, parentBucket(b))
	if !ok || m != mine {
		return start, ok
	}
	sokey := dummySoKey(b)
	for {
		pos, ok := h.find(hd, start, sokey, rankHead)
		if !ok {
			return nil, false
		}
		if !pos.found {
			// Not on the list, so nobody else reads these fields yet.
			d.sokey = sokey
			d.next.Store(pos.curr)
			if !pos.pred.next.CompareAndSwap(pos.curr, d) {
				h.releasePos(hd, pos)
				continue
			}
		}
		// No checkpoint between the splice and this store.
		d.meta.Store(kindDummy)
		h.releasePos(hd, pos)
		hd.st.dummies.Inc()
		return d, true
	}
}

// startBucket locates the node heading the bucket hash falls in under the
// current table size.
func (h *Map[V]) startBucket(hd *Handle[V], hash uint64) (*Node[V], bool) {
	return h.bucketHead(hd, hash&(h.size.Load()-1))
}

// maybeGrow doubles the table once enough inserts have found the load factor
// exceeded (growPatienceShift). The segment holding the new buckets' heads is
// published first, so a thread that sees the new size can index them; then a
// single CAS publishes the size. The new buckets link lazily on first access,
// so growth is incremental and never moves a node. One thread at a time
// allocates a segment — a segment is as large as the whole table below it,
// and every insert that sees the load exceeded would otherwise make one and
// all but the first throw theirs away — and the others do not wait for it:
// they leave the doubling to a later insert. Touches no records, so it is
// safe to call at any point of an operation (including recovery).
func (h *Map[V]) maybeGrow(hd *Handle[V]) {
	size := h.size.Load()
	full := h.maxLoad * int64(size)
	if size >= h.maxBuckets || h.count.Load() <= full {
		return
	}
	if h.overFull.Add(1) <= full>>growPatienceShift {
		return
	}
	p := bits.Len64(size) - 1 // the buckets [size, 2*size) are segment p
	if h.segments[p].Load() == nil {
		if !h.growing.CompareAndSwap(false, true) {
			return
		}
		if h.segments[p].Load() == nil {
			h.segments[p].Store(newSegment[V](p))
		}
		h.growing.Store(false)
	}
	if h.size.CompareAndSwap(size, size*2) {
		h.overFull.Store(0)
		hd.st.resizes.Inc()
	}
}

// --- Traversal --------------------------------------------------------------

// findPos is a position in the list: curr is the first node at or past the
// search key (nil at the end of the list), pred its predecessor, and next
// curr's successor once an update has read it to mark curr (liveNext). Under
// per-record protection the recorded nodes are protected as flagged, and next
// whenever it is set.
type findPos[V any] struct {
	pred, curr, next *Node[V]
	predProt         bool
	currProt         bool
	found            bool
}

// releasePos drops the protections recorded in pos.
func (h *Map[V]) releasePos(hd *Handle[V], pos findPos[V]) {
	if !h.perRecord {
		return
	}
	if pos.predProt {
		hd.rm.Unprotect(pos.pred)
	}
	if pos.currProt && pos.curr != nil {
		hd.rm.Unprotect(pos.curr)
	}
	if pos.next != nil {
		hd.rm.Unprotect(pos.next)
	}
}

// find walks the bucket list from start to the position of (sokey, rank),
// physically unlinking any marked node it passes (Michael's find): a node
// followed by a marker leaves with its marker, a node followed by its
// replacement leaves alone and the walk goes on at the replacement. ok=false
// means a protection validation or an unlink CAS failed and the operation
// must restart; every protection has been released in that case.
//
// On ok=true the returned position holds: pred protected (unless it is
// start, which is a dummy and never retired), curr protected (when non-nil),
// and found reporting whether curr is the node at (sokey, rank).
// The caller must eventually releasePos.
func (h *Map[V]) find(hd *Handle[V], start *Node[V], sokey uint64, rank int) (findPos[V], bool) {
	rm := hd.rm
	pos := findPos[V]{pred: start}
	curr := start.next.Load()
	if h.perRecord && curr != nil {
		if !rm.Protect(curr) {
			return pos, false
		}
		if start.next.Load() != curr {
			rm.Unprotect(curr)
			return pos, false
		}
	}
	for {
		rm.Checkpoint()
		if curr == nil {
			return pos, true
		}
		h.observe(hd.tid, curr)
		next := curr.next.Load()
		if next != nil {
			if h.perRecord {
				if !rm.Protect(next) {
					h.failFind(hd, pos, curr, nil)
					return pos, false
				}
				if curr.next.Load() != next {
					h.failFind(hd, pos, curr, next)
					return pos, false
				}
				if pos.pred.next.Load() != curr {
					// If next is a marker or a replacement, curr.next froze
					// when curr was marked, so the validation above cannot
					// prove curr has not already been unlinked and next
					// reclaimed — and telling marks apart would itself
					// dereference next. curr still being reachable from the
					// protected pred proves it is not yet retired, nor is
					// anything its frozen next leads to, making the
					// announcement in time for any kind of next.
					h.failFind(hd, pos, curr, next)
					return pos, false
				}
			}
			h.observe(hd.tid, next)
			if replaces(curr, next) {
				// curr was overwritten by next; unlink curr alone. As with a
				// marker, only the winning CAS retires, and next — the binding
				// from this CAS on — is protected already and becomes curr.
				if !pos.pred.next.CompareAndSwap(curr, next) {
					h.failFind(hd, pos, curr, next)
					return pos, false
				}
				rm.Retire(curr)
				hd.st.unlinks.Inc()
				if h.perRecord {
					rm.Unprotect(curr)
				}
				curr = next
				continue
			}
			if next.kind() == kindMarker {
				// curr is logically deleted; unlink the (curr, marker) pair.
				// Only the winning CAS retires: curr leaves the list exactly
				// once, and its next field froze at the marker when it was
				// marked, so the pair cannot be unlinked twice.
				succ := next.next.Load()
				if pos.pred.next.CompareAndSwap(curr, succ) {
					rm.Retire(curr)
					rm.Retire(next)
					hd.st.unlinks.Inc()
					if h.perRecord {
						rm.Unprotect(curr)
						rm.Unprotect(next)
					}
					curr = succ
					if h.perRecord && curr != nil {
						if !rm.Protect(curr) {
							h.failFind(hd, pos, nil, nil)
							return pos, false
						}
						if pos.pred.next.Load() != curr {
							h.failFind(hd, pos, curr, nil)
							return pos, false
						}
					}
					continue
				}
				h.failFind(hd, pos, curr, next)
				return pos, false
			}
		}
		if c := curr.cmp(sokey, rank); c >= 0 {
			if h.perRecord && next != nil {
				rm.Unprotect(next)
			}
			pos.curr = curr
			pos.currProt = h.perRecord
			pos.found = c == 0
			return pos, true
		}
		// Advance the window: curr's protection slides to the pred slot,
		// next's (acquired above) to the curr slot.
		if h.perRecord && pos.predProt {
			rm.Unprotect(pos.pred)
		}
		pos.pred = curr
		pos.predProt = h.perRecord
		curr = next
	}
}

// failFind releases the protections held by an aborted find: the sliding
// pred plus whichever of curr/next the failing iteration still holds.
func (h *Map[V]) failFind(hd *Handle[V], pos findPos[V], curr, next *Node[V]) {
	if !h.perRecord {
		return
	}
	rm := hd.rm
	if next != nil {
		rm.Unprotect(next)
	}
	if curr != nil {
		rm.Unprotect(curr)
	}
	if pos.predProt {
		rm.Unprotect(pos.pred)
	}
}

// --- Operations -------------------------------------------------------------

// Body outcomes.
const (
	opRetry = iota
	opTrue
	opFalse
)

// Insert adds key with the given value to the map. It returns true if the
// key was inserted and false if it was already present (the value is not
// replaced, matching the set semantics of the module's other structures).
func (hd *Handle[V]) Insert(key int64, value V) bool {
	return hd.insertHashed(hashOf(key), value)
}

// insertHashed is Insert for a caller that already holds hashOf(key) (the
// partitioned wrapper routes on it). The hash is the key: hashing is a
// bijection, and the keyed operations below all take the hash alone.
func (hd *Handle[V]) insertHashed(hash uint64, value V) bool {
	h := hd.h
	// Quiescent preamble: obtain the node the body may publish. Allocation
	// is not re-entrant, so it must not happen inside the body (which can be
	// neutralized and re-run).
	node := hd.scratch()
	for {
		switch h.insertBody(hd, hash, value, node) {
		case opTrue:
			return true
		case opFalse:
			hd.park(node)
			return false
		default:
			hd.st.restarts.Inc()
		}
	}
}

// insertBody is one execution of the insert body. The linearizing CAS result
// is captured in published before EnterQstate (which can deliver a pending
// neutralization), so recovery decides retry-vs-success from local state
// alone and never touches shared records.
func (h *Map[V]) insertBody(hd *Handle[V], hash uint64, value V, node *Node[V]) (outcome int) {
	rm := hd.rm
	published := false
	if h.crashRecovery {
		defer neutralize.OnNeutralized(hd.rm, func(neutralize.Neutralized) {
			if published {
				outcome = opTrue
			} else {
				outcome = opRetry
			}
		})
	}
	rm.LeaveQstate()
	sokey := regularSoKey(hash)
	start, ok := h.startBucket(hd, hash)
	if !ok {
		rm.EnterQstate()
		return opRetry
	}
	pos, ok := h.find(hd, start, sokey, rankRegular)
	if !ok {
		rm.EnterQstate()
		return opRetry
	}
	if pos.found {
		rm.EnterQstate()
		h.releasePos(hd, pos)
		return opFalse
	}
	initRegular(node, value, sokey, pos.curr)
	if pos.pred.next.CompareAndSwap(pos.curr, node) {
		published = true
		h.count.Add(1)
		h.maybeGrow(hd)
		rm.EnterQstate()
		h.releasePos(hd, pos)
		return opTrue
	}
	rm.EnterQstate()
	h.releasePos(hd, pos)
	return opRetry
}

// Delete removes key from the map, returning true if it was present.
func (hd *Handle[V]) Delete(key int64) bool { return hd.deleteHashed(hashOf(key)) }

func (hd *Handle[V]) deleteHashed(hash uint64) bool {
	h := hd.h
	// Quiescent preamble: obtain the marker the body may publish.
	marker := hd.scratch()
	for {
		outcome, unlinked := h.deleteBody(hd, hash, marker)
		switch outcome {
		case opTrue:
			// Quiescent postamble. If our own unlink CAS won, the pair is
			// unreachable and it is on us to retire it.
			if unlinked != nil {
				hd.rm.Retire(unlinked)
				hd.rm.Retire(marker)
			} else {
				hd.awaitUnlink(hash)
			}
			return true
		case opFalse:
			hd.park(marker)
			return false
		default:
			hd.st.restarts.Inc()
		}
	}
}

// awaitUnlink is the quiescent postamble of an update that marked a node but
// did not unlink it (its own unlink CAS lost, or the body was neutralized
// after the mark). The update takes effect when the node leaves the list, so
// it may not return before that, and one find to the key's position is
// enough: a find that completes has unlinked every marked node on its way,
// and whoever unlinks the node retires it.
func (hd *Handle[V]) awaitUnlink(hash uint64) {
	for {
		if _, _, done := hd.h.findBody(hd, hash, nil); done {
			return
		}
		hd.st.restarts.Inc()
	}
}

// deleteBody is one execution of the delete body. The marker CAS on the
// victim's next field decides which Delete owns the removal; its result is
// captured in took before any further checkpoint, so neutralization recovery
// never has to guess whether the delete took hold. The removal linearizes at
// the victim's unlink, which the caller sees through; unlinked is the victim
// when this body's own unlink CAS won.
func (h *Map[V]) deleteBody(hd *Handle[V], hash uint64, marker *Node[V]) (outcome int, unlinked *Node[V]) {
	rm := hd.rm
	took := opRetry
	if h.crashRecovery {
		defer neutralize.OnNeutralized(hd.rm, func(neutralize.Neutralized) {
			// unlinked (set before EnterQstate) rides the named return.
			outcome = took
		})
	}
	rm.LeaveQstate()
	sokey := regularSoKey(hash)
	start, ok := h.startBucket(hd, hash)
	if !ok {
		rm.EnterQstate()
		return opRetry, nil
	}
	pos, ok := h.find(hd, start, sokey, rankRegular)
	if !ok {
		rm.EnterQstate()
		return opRetry, nil
	}
	if !pos.found {
		rm.EnterQstate()
		h.releasePos(hd, pos)
		return opFalse, nil
	}
	if n := pos.curr; h.liveNext(hd, &pos) {
		initMarker(marker, pos.next)
		if n.next.CompareAndSwap(pos.next, marker) {
			// The removal is ours. Try to unlink the pair ourselves; on
			// failure the postamble's find will, unless a helper gets there
			// first (helping is cheap here — unlinking needs no descriptor,
			// just the pair itself).
			took = opTrue
			h.count.Add(-1)
			if pos.pred.next.CompareAndSwap(n, pos.next) {
				unlinked = n
				hd.st.unlinks.Inc()
			}
		}
	}
	rm.EnterQstate()
	h.releasePos(hd, pos)
	return took, unlinked
}

// liveNext reads the next field of pos.curr, the node an update found at its
// key, into pos.next, and reports whether the node is unmarked — neither
// deleted nor replaced — so the update may mark it with a CAS from pos.next.
// The successor is inspected and becomes the mark's frozen next, so under
// per-record protection it is protected and validated first; as in find,
// validating through the node's next alone is not enough once that field has
// frozen, so the node's continued reachability from the protected pred
// completes the proof that the successor has not been reclaimed. false means
// restart: a validation failed, or the node is marked, and the retry's find
// unlinks it. pos.next is released with pos either way.
func (h *Map[V]) liveNext(hd *Handle[V], pos *findPos[V]) bool {
	n := pos.curr
	s := n.next.Load()
	if s == nil {
		return true
	}
	if h.perRecord && !hd.rm.Protect(s) {
		return false
	}
	pos.next = s
	if h.perRecord && (n.next.Load() != s || pos.pred.next.Load() != n) {
		return false
	}
	h.observe(hd.tid, s)
	return s.kind() != kindMarker && !replaces(n, s)
}

// Upsert sets key to value: it inserts the key when absent and replaces the
// existing binding otherwise, returning the previous value and whether the
// key was present. A replacement marks the current node with the new one —
// one CAS on the old node's next, which decides which update owns it — and
// takes effect when the old node is unlinked, by this Upsert or by any
// traversal that meets the pair. A concurrent Get reads the old value or the
// new one and never finds the key absent, and Upsert does not return before
// the old node has left the list.
func (hd *Handle[V]) Upsert(key int64, value V) (prev V, replaced bool) {
	return hd.upsertHashed(hashOf(key), value, nil)
}

// UpsertFunc is Upsert for a map that recycles its values' storage (see
// "Value storage" in the package comment): the stored value is fill(old),
// where old is what the record the operation publishes last held — the zero
// value for a fresh record — so fill can write into old's storage instead of
// allocating. fill runs exactly once, before the operation enters the map,
// on a record no other thread can reach. It reports whether the key was
// present; the previous value is not returned, because its storage goes to a
// later fill once the scheme frees its node.
func (hd *Handle[V]) UpsertFunc(key int64, fill func(old V) V) (replaced bool) {
	var zero V
	_, replaced = hd.upsertHashed(hashOf(key), zero, fill)
	return replaced
}

// upsertHashed is Upsert, or UpsertFunc when fill is non-nil (value is then
// unused).
func (hd *Handle[V]) upsertHashed(hash uint64, value V, fill func(V) V) (V, bool) {
	h := hd.h
	// Quiescent preamble: obtain the node the body publishes, as the key's
	// node or as the old node's replacement, and build the value in it.
	node := hd.scratch()
	if fill != nil {
		value = fill(node.value)
	}
	for {
		outcome, prev, unlinked := h.upsertBody(hd, hash, value, node)
		switch outcome {
		case opFalse:
			return prev, false
		case opTrue:
			// Quiescent postamble, as Delete's: retire the old node if our
			// own unlink CAS won, else see it unlinked.
			if unlinked != nil {
				hd.rm.Retire(unlinked)
			} else {
				hd.awaitUnlink(hash)
			}
			return prev, true
		default:
			hd.st.restarts.Inc()
		}
	}
}

// upsertBody is one execution of the upsert body: opFalse when the key was
// absent and node was spliced in, opTrue when node marked the key's node as
// its replacement, unlinked being the old node when this body's own unlink
// CAS won. Either CAS that decides the outcome is captured in took before any
// further checkpoint, so neutralization recovery reconstructs the outcome
// from local state alone, exactly as in insertBody/deleteBody.
func (h *Map[V]) upsertBody(hd *Handle[V], hash uint64, value V, node *Node[V]) (outcome int, prevVal V, unlinked *Node[V]) {
	rm := hd.rm
	took := opRetry
	if h.crashRecovery {
		defer neutralize.OnNeutralized(hd.rm, func(neutralize.Neutralized) {
			// unlinked (set before EnterQstate) rides the named return.
			outcome = took
		})
	}
	rm.LeaveQstate()
	sokey := regularSoKey(hash)
	start, ok := h.startBucket(hd, hash)
	if !ok {
		rm.EnterQstate()
		return opRetry, prevVal, nil
	}
	pos, ok := h.find(hd, start, sokey, rankRegular)
	if !ok {
		rm.EnterQstate()
		return opRetry, prevVal, nil
	}
	if !pos.found {
		// Absent: plain insert (cf. insertBody).
		initRegular(node, value, sokey, pos.curr)
		if pos.pred.next.CompareAndSwap(pos.curr, node) {
			took = opFalse
			h.count.Add(1)
			h.maybeGrow(hd)
		}
	} else if n := pos.curr; h.liveNext(hd, &pos) {
		// Present: node takes n's successor and becomes n's mark. From this
		// CAS on n is ours to replace; the replacement takes effect at n's
		// unlink, and the count does not move.
		prevVal = n.value
		initRegular(node, value, sokey, pos.next)
		if n.next.CompareAndSwap(pos.next, node) {
			took = opTrue
			if pos.pred.next.CompareAndSwap(n, node) {
				unlinked = n
				hd.st.unlinks.Inc()
			}
		}
	}
	rm.EnterQstate()
	h.releasePos(hd, pos)
	return took, prevVal, unlinked
}

// Get returns the value associated with key and whether it is present.
func (hd *Handle[V]) Get(key int64) (V, bool) { return hd.getHashed(hashOf(key), nil) }

// View calls fn with key's value while the node holding it is still
// protected, and reports whether the key was present; fn is not called for
// an absent key. It is the read of a map whose storage UpsertFunc recycles:
// the value is only valid during the call, so fn copies out what it needs. A
// neutralized attempt (DEBRA+) is retried, so fn may run more than once per
// View and must let the last call win.
func (hd *Handle[V]) View(key int64, fn func(V)) bool {
	_, ok := hd.getHashed(hashOf(key), fn)
	return ok
}

// getHashed is Get, calling fn (when non-nil) on the value before the
// protection ends.
func (hd *Handle[V]) getHashed(hash uint64, fn func(V)) (V, bool) {
	h := hd.h
	for {
		var v V
		var ok, done bool
		if h.perRecord {
			v, ok, done = h.findBody(hd, hash, fn)
		} else {
			v, ok, done = h.lookupBody(hd, hash, fn)
		}
		if done {
			return v, ok
		}
		hd.st.restarts.Inc()
	}
}

// lookupBody is one attempt of Get under the epoch schemes. done=false means
// restart (the bucket's first touch lost a CAS, or the attempt was
// neutralized; read-only recovery is trivially discard-and-retry). It is kept
// apart from findBody, whose preamble it shares: folded into one function the
// read path measured 3 % slower on map_read_mostly.
func (h *Map[V]) lookupBody(hd *Handle[V], hash uint64, fn func(V)) (val V, found, done bool) {
	rm := hd.rm
	if h.crashRecovery {
		defer neutralize.OnNeutralized(hd.rm, func(neutralize.Neutralized) {
			var zero V
			val, found, done = zero, false, false
		})
	}
	rm.LeaveQstate()
	start, ok := h.startBucket(hd, hash)
	if !ok {
		rm.EnterQstate()
		return val, false, false
	}
	// Read the value while the node is still safe to access, before
	// EnterQstate can deliver a neutralization that would invalidate it.
	if n := h.lookup(hd, start, regularSoKey(hash)); n != nil {
		val, found = n.value, true
		if fn != nil {
			fn(val)
		}
	}
	rm.EnterQstate()
	return val, found, true
}

// findBody is one find to key's position: Get under per-record protection,
// and the pass an update makes to see the node it marked unlinked. done=false means
// restart (a protection validation or an unlink CAS failed, or the attempt
// was neutralized). fn, when non-nil, sees the value of a found node.
func (h *Map[V]) findBody(hd *Handle[V], hash uint64, fn func(V)) (val V, found, done bool) {
	rm := hd.rm
	if h.crashRecovery {
		defer neutralize.OnNeutralized(hd.rm, func(neutralize.Neutralized) {
			var zero V
			val, found, done = zero, false, false
		})
	}
	rm.LeaveQstate()
	start, ok := h.startBucket(hd, hash)
	if !ok {
		rm.EnterQstate()
		return val, false, false
	}
	pos, ok := h.find(hd, start, regularSoKey(hash), rankRegular)
	if !ok {
		rm.EnterQstate()
		return val, false, false
	}
	if pos.found {
		val, found = pos.curr.value, true
		if fn != nil {
			fn(val)
		}
	}
	rm.EnterQstate()
	h.releasePos(hd, pos)
	return val, found, true
}

// lookup is the read path of the epoch schemes: a wait-free walk from the
// bucket head to the first regular node with the given sokey, or nil. The
// thread's epoch announcement covers every record reachable since the
// operation began, including marked, unlinked and retired ones, so the walk
// follows next pointers straight through them: a marker sorts before every
// regular position (Node.cmp) and is stepped over (its next is the marked
// node's frozen successor, and every link leads to a greater position, or
// from a replaced node to its replacement at the same one, so the walk still
// ends), nothing is unlinked, no CAS is issued, and the walk stops at the
// node that matches without looking past it — the first node of its key,
// which is the binding while a replacement waits behind it. A node the walk
// reaches was on the list at some moment since the walk began, and a key is
// in the map for as long as its node is on the list (see the package
// comment). A hop reads sokey and next, and the kind only on a sokey tie.
// Per-record schemes cannot take this path: a hazard pointer protects one
// record, validated against the link it was read from, and a link out of a
// marked node proves nothing about its target.
func (h *Map[V]) lookup(hd *Handle[V], start *Node[V], sokey uint64) *Node[V] {
	rm := hd.rm
	for curr := start.next.Load(); curr != nil; curr = curr.next.Load() {
		rm.Checkpoint()
		h.observe(hd.tid, curr)
		switch c := curr.cmp(sokey, rankRegular); {
		case c == 0:
			return curr
		case c > 0:
			return nil
		}
	}
	return nil
}

// Contains reports whether key is in the map.
func (hd *Handle[V]) Contains(key int64) bool {
	_, ok := hd.Get(key)
	return ok
}

// --- Quiescent helpers ------------------------------------------------------

// step follows a node's next link, skipping over a deletion marker.
func step[V any](n *Node[V]) *Node[V] {
	next := n.next.Load()
	if next != nil && next.kind() == kindMarker {
		return next.next.Load()
	}
	return next
}

// Len returns the number of keys by walking the list (quiescent use only;
// Count is the O(1) counter-based alternative).
func (h *Map[V]) Len() int {
	n := 0
	h.ForEach(func(int64, V) bool { n++; return true })
	return n
}

// ForEach visits every key/value pair (quiescent use only). The order is
// split-order, not key order.
func (h *Map[V]) ForEach(fn func(key int64, value V) bool) {
	for curr := step(&h.head); curr != nil; curr = step(curr) {
		if curr.kind() == kindRegular && !fn(curr.Key(), curr.value) {
			return
		}
	}
}

// Validate checks the structural invariants (quiescent use only): the list
// is strictly sorted by (sokey, rank), markers only follow regular nodes, and
// every head that says it is linked is reachable.
func (h *Map[V]) Validate() error {
	// Order along the list.
	prev := &h.head
	seen := map[*Node[V]]bool{prev: true}
	for curr := step(prev); curr != nil; curr = step(curr) {
		if curr.kind() == kindMarker {
			return fmt.Errorf("hashmap: marker reachable as a primary node")
		}
		if seen[curr] {
			return fmt.Errorf("hashmap: cycle at sokey %#x", curr.sokey)
		}
		seen[curr] = true
		if prev.cmp(curr.sokey, curr.rank()) >= 0 {
			return fmt.Errorf("hashmap: out of split order: (%#x,%d) before (%#x,%d)",
				prev.sokey, prev.rank(), curr.sokey, curr.rank())
		}
		prev = curr
	}
	// Every linked head is on the list. (A head still linking belongs to an
	// operation in flight, or to a claimer that never came back.)
	for b := uint64(1); b < h.size.Load(); b++ {
		if d := h.headOf(b); d.kind() == kindDummy && !seen[d] {
			return fmt.Errorf("hashmap: bucket %d dummy not reachable", b)
		}
	}
	return nil
}

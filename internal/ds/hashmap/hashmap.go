// Package hashmap implements a lock-free hash map over the Record Manager
// abstraction: a split-ordered list (Shalev and Shavit's recursive
// split-ordering) of Michael-style lock-free bucket lists, with lock-free
// incremental resizing. It is the first data structure of this module that
// is not part of the paper's own evaluation, added to demonstrate that the
// Record Manager generalises beyond the paper's benchmarks: the map is
// programmed once against core.RecordManager, and none, ebr, qsbr, debra and
// hp drop in unchanged. New refuses debra+: a neutralized operation keeps
// running until its next checkpoint, so sound recovery would have to reserve
// every record the operation may CAS before then (as the BST's does), and
// the map has no recovery code.
//
// Reclamation-relevant structure:
//
//   - Key/value nodes are allocated, retired and recycled through one Record
//     Manager, so retired nodes may be reused while slow readers still hold
//     references to them: exactly the situation safe memory reclamation must
//     make survivable. A Delete retires one record, its victim: nothing else
//     is allocated to mark it.
//   - Nodes link by index, not by pointer. A link is one uint64 holding the
//     successor's 32-bit record index (or a bucket number, for a head) and a
//     mark bit, CASed as one word, so marking a node and fixing its successor
//     are one CAS — Harris's mark bit, which a Go pointer has no room for.
//     An index resolves by arithmetic through the allocator's slab directory
//     (arena.Directory), so New requires an allocator that numbers the
//     records (arena.Bump). The directory keeps every slab alive for the
//     map's lifetime, so New also requires a pool: freed records must come
//     back as new nodes, not be left to a garbage collector that can no
//     longer see they are unreachable.
//   - Bucket heads ("dummies") are not Record Manager records. A head is
//     never removed, so it is never retired and nothing about it needs a
//     grace period, nor is it ever protected; it is one link word in the
//     bucket directory (bucket 0's is a field of Map), found by arithmetic. A
//     link to bucket b's head carries b, and a traversal places the head by
//     that number (its sokey is b reversed) without loading anything but the
//     word. Heads are the stable re-entry points that let a restarted
//     traversal re-enter its bucket without re-running the whole operation
//     from a global head.
//   - Under hazard-pointer style schemes (NeedsPerRecordProtection) the
//     traversal maintains a sliding pred/curr window of protections,
//     validating each announcement against the link it was resolved from —
//     the word, mark included — and restarting the operation when
//     validation fails.
//   - Under the epoch schemes Get does none of that: it walks from the
//     bucket head straight through marked and retired nodes without a CAS
//     and stops at the node it was looking for (lookup), which is what an
//     epoch announcement buys a search.
//
// Resizing is incremental and lock-free: the bucket directory is a two-level
// table of segments, growing the table publishes the next segment and then
// CASes the bucket count, and a new bucket's head is spliced into the
// split-ordered list on first access (no node is ever rehashed or moved).
//
// A node stores no user key. A node's split-order key is its mixed hash
// bit-reversed, and both steps are bijections, so the sokey is the key
// (Node.Key inverts it) and no two nodes share one. Bucket b's head sorts at
// b bit-reversed, which is at most the sokey of every key in the bucket and
// equal to exactly one: the key whose hash is b. The list is sorted by
// (sokey, rank), where a head ranks before a node.
//
// # Entering a bucket: the claim protocol
//
// A head's word starts at zero ("unclaimed": segment memory is zeroed). The
// first thread to enter the bucket claims the head with one CAS from zero to
// claimedBy(slot), splices it into the list behind the bucket's parent, and
// moves the word's state to headLinked; from then on entering the bucket is
// one load. The state lives in the top bits of the head's link, and every
// link CAS keeps those bits (casLink), so a thread that inserts or unlinks
// behind a spliced head before the claimer has marked it linked leaves the
// claim in place. A thread that finds a head claimed by another slot does not
// wait: it starts from the nearest ancestor that is linked (bucket 0 always
// is), which is correct because the list is globally split-ordered and costs
// a longer walk. A claimer whose body restarts finds its slot in the word and
// resumes; a claimer that never returns costs that bucket the longer walk and
// blocks nobody (linkHead).
//
// # Linearization
//
// A key is in the map exactly while a node holding it is on the list —
// reachable from bucket 0's head — marked or not, and its binding is the
// first such node. A node is marked by setting the mark bit in its link, in
// one of two ways: a Delete marks the link to its victim's successor, and a
// replacing Upsert swaps the old node's link for a marked link to the
// replacement, whose own link is the old successor. A marked link is never
// changed again: every CAS on a link expects an unmarked word. At most two
// nodes per key are on the list, adjacent, the first marked with a
// link to the second; at quiescence there is one. Unlinking is the same for
// both marks: the predecessor's link is swung to the marked node's
// successor. An insert's find unlinks a marked node at its position before
// it reports the position free or taken. The argument is about the list
// alone and holds under every scheme.
//
//   - Insert and the insert half of Upsert take effect at the CAS that links
//     the node. The predecessor is unmarked at that CAS (the CAS expected an
//     unmarked link), and only marked nodes are ever unlinked, so the node is
//     on the list.
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
//   - Get under the epoch schemes is a walk that never reads a mark. Every
//     node it reaches was on the list at some moment since the walk began. By
//     induction: the head always is. If the node the walk stands on is still
//     linked when its link is read, so is its successor. If it was unlinked
//     in the meantime, its link froze when it was marked, and at the instant
//     before the unlink the node that link names was on the list. For a
//     deleted node that is because its successor cannot be unlinked while
//     the node is marked but linked: unlinking the successor would CAS the
//     marked node's link, and that CAS expects an unmarked word. A
//     replacement is itself the next node, on the list through old. The step
//     after it, old -> new -> s, holds because new's link is not CASed while
//     old is linked: every find that reaches new has unlinked old on the way,
//     and every update that finds old marked restarts. So new keeps s, the
//     successor old had, until old leaves, and a key never has a third node.
//     A Get that returns a node linearizes at a moment the node was linked;
//     the walk stops at the first node of its key, which is the binding until
//     it is unlinked, and never reads that node's link. A Get that passes the
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

	"repro/internal/arena"
	"repro/internal/core"
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
	// table doubles (growPatienceShift says how soon). A bucket costs the
	// directory one 8-byte word, so chains of two cost 4 bytes per key.
	DefaultMaxLoad = 2
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
// [2^p, 2^(p+1)), one link word each, so entering a bucket is one load of its
// head and not a load of a slot and then of the dummy it points at. The
// memory arrives zeroed, which is every head's unclaimed state.
type segment struct {
	buckets []atomic.Uint64
}

func newSegment(p int) *segment {
	return &segment{buckets: make([]atomic.Uint64, 1<<p)}
}

// spareSlot is a per-thread scratch record, padded to keep the single-writer
// slots off each other's cache lines: the node an Insert pre-allocated and
// did not publish (the key was present). The next Insert or Upsert of the
// slot takes it instead of paying Allocate+Deallocate per call. Every update
// takes before it parks and parks at most one record, so one slot is enough.
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
	dir  *arena.Directory[Node[V]] // resolves record links (rec)
	head atomic.Uint64             // bucket 0's head: the head of the split-ordered list

	size atomic.Uint64 // current bucket count (power of two)

	maxLoad    int64
	maxBuckets uint64

	segments [maxSegments]atomic.Pointer[segment]
	spares   []spareSlot[V]
	handles  []Handle[V]

	// perRecord caches whether the reclaimer needs Protect/validate per
	// record.
	perRecord bool

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
// slot. It panics on a neutralizing reclaimer (DEBRA+), and on a manager
// without a pool or whose allocator does not number the records (see the
// package comment).
func New[V any](mgr *Manager[V], threads int, opts ...Option) *Map[V] {
	if mgr == nil {
		panic("hashmap: New requires a RecordManager")
	}
	if threads <= 0 {
		panic("hashmap: New requires threads >= 1")
	}
	if mgr.SupportsCrashRecovery() {
		panic("hashmap: operations have no neutralization recovery, so a neutralizing reclaimer (DEBRA+) cannot be used; use DEBRA or HP")
	}
	bump, ok := mgr.Allocator().(*arena.Bump[Node[V]])
	if !ok {
		panic("hashmap: New requires an allocator that numbers its records (arena.Bump): links are record indices")
	}
	if mgr.Pool() == nil {
		panic("hashmap: New requires a manager with a pool: the allocator's directory keeps every record alive, so freed records must be recycled")
	}
	if ws := mgr.WorkerSlots(); ws > threads {
		threads = ws
	}
	if threads > maxClaimSlot+1 {
		panic(fmt.Sprintf("hashmap: New supports at most %d worker slots: a head's claim state names its claimer's slot", maxClaimSlot+1))
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
		mgr:        mgr,
		dir:        bump.Directory(),
		maxLoad:    cfg.maxLoad,
		maxBuckets: cfg.maxBuckets,
		spares:     make([]spareSlot[V], threads),
		perRecord:  mgr.NeedsPerRecordProtection(),
	}
	h.head.Store(headLinked)
	for p := 0; 1<<p < cfg.initialBuckets; p++ {
		h.segments[p].Store(newSegment(p))
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
// handle afterwards. The slot's parked scratch record (an unused node), if
// any, is returned to the pool rather than left for the next
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
// node when unset.
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
func (h *Map[V]) headOf(b uint64) *atomic.Uint64 {
	p := bits.Len64(b) - 1
	return &h.segments[p].Load().buckets[b-1<<p]
}

// bucketOf returns the bucket whose head link or word w names, ignoring the
// mark and the head state: 0 for the end of the list.
func bucketOf(w uint64) uint64 { return (w &^ headState) >> refShift }

// atEnd reports whether link or head word w names the end of the list.
func atEnd(w uint64) bool { return w&^(headState|markBit) == 0 }

// rec resolves record link w through slabs, a snapshot of the directory that
// a walk keeps from hop to hop, and returns the snapshot to keep: the same
// one, or the directory loaded again when w names a slab entered since (or
// slabs is nil). A hop so costs a compare and one load of an 8-byte
// directory entry. w may be a head's word: its state bits lie above the
// index.
func (h *Map[V]) rec(slabs []*Node[V], w uint64) (*Node[V], []*Node[V]) {
	idx := uint32(w >> refShift)
	if idx>>arena.SlabShift >= uint32(len(slabs)) {
		slabs = h.dir.Slabs()
	}
	return arena.Record(slabs, idx), slabs
}

// record resolves link w to the record it names, ignoring the mark, and nil
// when w names a head or the end of the list.
func (h *Map[V]) record(w uint64) *Node[V] {
	if w&recBit == 0 {
		return nil
	}
	n, _ := h.rec(nil, w)
	return n
}

// after returns the word that follows the position link w names, which must
// not be the end of the list: the record's link, or the head's word.
func (h *Map[V]) after(w uint64) uint64 {
	if n := h.record(w); n != nil {
		return n.next.Load()
	}
	return h.headOf(bucketOf(w)).Load()
}

// bucketHead returns the head a traversal of bucket b starts from: the
// bucket's head once it is on the list, else — while another thread is still
// splicing it — the head of its nearest linked ancestor. It is called inside
// an operation body: the thread is not quiescent, and ok=false propagates a
// failed find to the body, which restarts.
func (h *Map[V]) bucketHead(hd *Handle[V], b uint64) (*atomic.Uint64, bool) {
	if b == 0 {
		return &h.head, true
	}
	d := h.headOf(b)
	if d.Load()&headState == headLinked {
		return d, true
	}
	return h.linkHead(hd, b, d)
}

// linkHead is a bucket's first touch: the claim protocol of the package
// comment. The claimer splices the head behind its parent (linked the same
// way, recursively); everyone else gets the nearest linked ancestor. The
// splice is idempotent — find reports whether the head is already on the list
// — which is what lets a claimer whose body restarted resume here.
func (h *Map[V]) linkHead(hd *Handle[V], b uint64, d *atomic.Uint64) (*atomic.Uint64, bool) {
	mine := claimedBy(hd.tid)
	s := d.Load() & headState
	if s == 0 {
		// Unclaimed, so nobody has written the link either: the word is zero.
		if d.CompareAndSwap(0, mine) {
			s = mine
		} else {
			s = d.Load() & headState
		}
	}
	if s == headLinked {
		return d, true
	}
	start, ok := h.bucketHead(hd, parentBucket(b))
	if !ok || s != mine {
		return start, ok
	}
	for {
		pos, ok := h.find(hd, start, dummySoKey(b), rankHead)
		if !ok {
			return nil, false
		}
		if !pos.found {
			// Not on the list, so nobody else writes the word yet.
			d.Store(pos.link&^headState | mine)
			if !casLink(pos.pred, pos.link, headLink(b)) {
				h.releasePos(hd, pos)
				continue
			}
		}
		// On the list: another thread may CAS the link now, so the state
		// moves by CAS as well.
		for w := d.Load(); !d.CompareAndSwap(w, w&^headState|headLinked); w = d.Load() {
		}
		h.releasePos(hd, pos)
		hd.st.dummies.Inc()
		return d, true
	}
}

// startBucket locates the head of the bucket hash falls in under the current
// table size.
func (h *Map[V]) startBucket(hd *Handle[V], hash uint64) (*atomic.Uint64, bool) {
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
// safe to call at any point of an operation.
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
			h.segments[p].Store(newSegment(p))
		}
		h.growing.Store(false)
	}
	if h.size.CompareAndSwap(size, size*2) {
		h.overFull.Store(0)
		hd.st.resizes.Inc()
	}
}

// --- Traversal --------------------------------------------------------------

// findPos is a position in the list. pred is the link word in front of it —
// a head, or the link of predRec — and link the word find read there,
// unmarked, with the head's state when pred is a head. curr is the record at
// or past the search key, nil when the list ends or a head comes first, and
// next its link to its successor, unmarked, as find read it. An update CASes
// pred from link (casLink), or marks curr with a CAS from next, so either
// fails if the word has moved since. Under per-record protection predRec and
// curr, when non-nil, are protected.
type findPos[V any] struct {
	pred          *atomic.Uint64
	predRec, curr *Node[V]
	link, next    uint64
	found         bool
}

// releasePos drops the protections recorded in pos.
func (h *Map[V]) releasePos(hd *Handle[V], pos findPos[V]) {
	if !h.perRecord {
		return
	}
	if pos.predRec != nil {
		hd.rm.Unprotect(pos.predRec)
	}
	if pos.curr != nil {
		hd.rm.Unprotect(pos.curr)
	}
}

// find walks the bucket list from start to the position of (sokey, rank),
// physically unlinking every marked node it passes (Michael's find): a
// marked node is unlinked by swinging its predecessor's link to the marked
// node's successor — the node after a deleted one, the replacement of a
// replaced one — and the walk goes on from there. A head it meets is placed
// by its bucket number and, if it comes first, stepped onto without a
// protection. ok=false means a protection validation or an unlink CAS failed
// and the operation must restart; every protection has been released in
// that case.
//
// On ok=true the returned position holds: predRec protected (when non-nil),
// curr protected (when non-nil), and found reporting whether the position is
// (sokey, rank) — curr, or for a head's position the head after pred. The
// caller releases them with releasePos to go on inside its operation, or
// leaves them to EnterQstate, which drops every hazard pointer the thread
// holds.
func (h *Map[V]) find(hd *Handle[V], start *atomic.Uint64, sokey uint64, rank int) (findPos[V], bool) {
	rm := hd.rm
	pos := findPos[V]{pred: start}
	var slabs []*Node[V]
	w := start.Load() // heads are never marked
	for {
		if w&recBit == 0 {
			b := bucketOf(w)
			c := cmpPos(dummySoKey(b), rankHead, sokey, rank)
			if b == 0 || c >= 0 {
				// The end of the list, or a head at or past the position.
				pos.link, pos.found = w, b != 0 && c == 0
				return pos, true
			}
			if h.perRecord && pos.predRec != nil {
				rm.Unprotect(pos.predRec)
			}
			pos.pred, pos.predRec = h.headOf(b), nil
			w = pos.pred.Load()
			continue
		}
		var curr *Node[V]
		curr, slabs = h.rec(slabs, w)
		if h.perRecord {
			// Protect, then validate against the word curr was resolved
			// from: pred still holds the unmarked link, so pred is not
			// marked, hence still on the list, and so is curr — it was not
			// retired before the announcement became visible.
			rm.Protect(curr)
			if pos.pred.Load() != w {
				pos.curr = curr
				h.releasePos(hd, pos)
				return pos, false
			}
		}
		h.observe(hd.tid, curr)
		next := curr.next.Load()
		if next&markBit != 0 {
			// curr is deleted or replaced; unlink it. Only the winning CAS
			// retires: a marked link never changes, so curr leaves the list
			// exactly once, and the CAS fails if pred has been marked since.
			if !casLink(pos.pred, w, next&^markBit) {
				pos.curr = curr
				h.releasePos(hd, pos)
				return pos, false
			}
			rm.Retire(curr)
			hd.st.unlinks.Inc()
			if h.perRecord {
				rm.Unprotect(curr)
			}
			w = next&^markBit | w&headState
			continue
		}
		if c := cmpPos(curr.sokey, rankRegular, sokey, rank); c >= 0 {
			pos.curr, pos.link, pos.next = curr, w, next
			pos.found = c == 0
			return pos, true
		}
		// Advance the window: curr's protection slides to the pred slot.
		if h.perRecord && pos.predRec != nil {
			rm.Unprotect(pos.predRec)
		}
		pos.pred, pos.predRec = &curr.next, curr
		w = next
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
	// Quiescent preamble: obtain the node the body may publish.
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

// insertBody is one execution of the insert body; the CAS that links node is
// the insert's linearization point.
func (h *Map[V]) insertBody(hd *Handle[V], hash uint64, value V, node *Node[V]) int {
	rm := hd.rm
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
		return opFalse
	}
	initRegular(node, value, sokey, pos.link&^headState)
	if casLink(pos.pred, pos.link, recLink(node.index())) {
		h.count.Add(1)
		h.maybeGrow(hd)
		rm.EnterQstate()
		return opTrue
	}
	rm.EnterQstate()
	return opRetry
}

// Delete removes key from the map, returning true if it was present.
func (hd *Handle[V]) Delete(key int64) bool { return hd.deleteHashed(hashOf(key)) }

func (hd *Handle[V]) deleteHashed(hash uint64) bool {
	h := hd.h
	for {
		outcome, unlinked := h.deleteBody(hd, hash)
		switch outcome {
		case opTrue:
			// Quiescent postamble. If our own unlink CAS won, the node is
			// unreachable and it is on us to retire it.
			if unlinked != nil {
				hd.rm.Retire(unlinked)
			} else {
				hd.awaitUnlink(hash)
			}
			return true
		case opFalse:
			return false
		default:
			hd.st.restarts.Inc()
		}
	}
}

// awaitUnlink is the quiescent postamble of an update that marked a node but
// did not unlink it (its own unlink CAS lost). The update takes effect when
// the node leaves the list, so it may not return before that, and one find to
// the key's position is enough: a find that completes has unlinked every
// marked node on its way, and whoever unlinks the node retires it.
func (hd *Handle[V]) awaitUnlink(hash uint64) {
	for {
		if _, _, done := hd.h.findBody(hd, hash, nil); done {
			return
		}
		hd.st.restarts.Inc()
	}
}

// deleteBody is one execution of the delete body. The CAS that sets the
// mark on the victim's link decides which Delete owns the removal. The
// removal linearizes at the victim's unlink, which the caller sees through;
// unlinked is the victim when this body's own unlink CAS won.
func (h *Map[V]) deleteBody(hd *Handle[V], hash uint64) (outcome int, unlinked *Node[V]) {
	rm := hd.rm
	outcome = opRetry
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
		return opFalse, nil
	}
	// The mark CAS expects the unmarked link find read, so it fails if n
	// has been marked or given a new successor since; the retry's find sees
	// which.
	if n := pos.curr; n.next.CompareAndSwap(pos.next, pos.next|markBit) {
		// The removal is ours. Try to unlink n ourselves; on failure the
		// postamble's find will, unless a helper gets there first.
		outcome = opTrue
		h.count.Add(-1)
		if casLink(pos.pred, pos.link, pos.next) {
			unlinked = n
			hd.st.unlinks.Inc()
		}
	}
	rm.EnterQstate()
	return outcome, unlinked
}

// Upsert sets key to value: it inserts the key when absent and replaces the
// existing binding otherwise, returning the previous value and whether the
// key was present. A replacement marks the current node's link with the new
// node as its successor — one CAS, which decides which update owns it — and
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
// CAS won.
func (h *Map[V]) upsertBody(hd *Handle[V], hash uint64, value V, node *Node[V]) (outcome int, prevVal V, unlinked *Node[V]) {
	rm := hd.rm
	outcome = opRetry
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
	self := recLink(node.index())
	if !pos.found {
		// Absent: plain insert (cf. insertBody).
		initRegular(node, value, sokey, pos.link&^headState)
		if casLink(pos.pred, pos.link, self) {
			outcome = opFalse
			h.count.Add(1)
			h.maybeGrow(hd)
		}
	} else {
		// Present: node takes n's successor, and n's link becomes a marked
		// link to node. From this CAS on n is ours to replace; the
		// replacement takes effect at n's unlink, and the count does not
		// move.
		n := pos.curr
		prevVal = n.value
		initRegular(node, value, sokey, pos.next)
		if n.next.CompareAndSwap(pos.next, self|markBit) {
			outcome = opTrue
			if casLink(pos.pred, pos.link, self) {
				unlinked = n
				hd.st.unlinks.Inc()
			}
		}
	}
	rm.EnterQstate()
	return outcome, prevVal, unlinked
}

// Get returns the value associated with key and whether it is present.
func (hd *Handle[V]) Get(key int64) (V, bool) { return hd.getHashed(hashOf(key), nil) }

// View calls fn with key's value while the node holding it is still
// protected, and reports whether the key was present; fn is not called for
// an absent key. It is the read of a map whose storage UpsertFunc recycles:
// the value is only valid during the call, so fn copies out what it needs.
// fn runs at most once per View.
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
// restart (the bucket's first touch lost a CAS). It is kept apart from
// findBody, whose preamble it shares: folded into one function the read path
// measured 3 % slower on map_read_mostly.
func (h *Map[V]) lookupBody(hd *Handle[V], hash uint64, fn func(V)) (val V, found, done bool) {
	rm := hd.rm
	rm.LeaveQstate()
	start, ok := h.startBucket(hd, hash)
	if !ok {
		rm.EnterQstate()
		return val, false, false
	}
	// Read the value while the node is still safe to access.
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
// restart (a protection validation or an unlink CAS failed). fn, when
// non-nil, sees the value of a found node.
func (h *Map[V]) findBody(hd *Handle[V], hash uint64, fn func(V)) (val V, found, done bool) {
	rm := hd.rm
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
	return val, found, true
}

// lookup is the read path of the epoch schemes: a wait-free walk from the
// bucket head to the first node with the given sokey, or nil. The thread's
// epoch announcement covers every record reachable since the operation
// began, including marked, unlinked and retired ones, so the walk follows
// links straight through them without reading the mark (every link leads to
// a greater position, or from a replaced node to its replacement at the same
// one, so the walk ends), nothing is unlinked, no CAS is issued, and the walk
// stops at the node that matches without looking past it — the first node
// of its key, which is the binding while a replacement waits behind it. A
// node the walk reaches was on the list at some moment since the walk began,
// and a key is in the map for as long as its node is on the list (see the
// package comment). A hop reads a node's sokey and next; a record link
// resolves through the walk's snapshot of the directory (rec), and a head is
// placed by its bucket number: one past the key ends the walk unread, one
// before it costs the load of its word.
// Per-record schemes cannot take this path: a hazard pointer protects one
// record, validated against the link it was read from, and a link out of a
// marked node proves nothing about its target.
func (h *Map[V]) lookup(hd *Handle[V], start *atomic.Uint64, sokey uint64) *Node[V] {
	var slabs []*Node[V]
	for w := start.Load(); ; {
		if w&recBit == 0 {
			if b := bucketOf(w); b != 0 && dummySoKey(b) <= sokey {
				w = h.headOf(b).Load()
				continue
			}
			return nil
		}
		var curr *Node[V]
		curr, slabs = h.rec(slabs, w)
		h.observe(hd.tid, curr)
		if curr.sokey >= sokey {
			if curr.sokey == sokey {
				return curr
			}
			return nil
		}
		w = curr.next.Load()
	}
}

// Contains reports whether key is in the map.
func (hd *Handle[V]) Contains(key int64) bool {
	_, ok := hd.Get(key)
	return ok
}

// --- Quiescent helpers ------------------------------------------------------

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
	for w := h.head.Load(); !atEnd(w); w = h.after(w) {
		if n := h.record(w); n != nil && !fn(n.Key(), n.value) {
			return
		}
	}
}

// Validate checks the structural invariants (quiescent use only): the list
// is strictly sorted by (sokey, rank), every record link names the record
// that holds its index and carries no head state, no head is marked or
// unclaimed on the list, and every head whose state says linked is
// reachable.
func (h *Map[V]) Validate() error {
	size := h.size.Load()
	s, r := dummySoKey(0), rankHead // bucket 0's head
	seen := map[uint64]bool{}       // the links walked, unmarked
	for w := h.head.Load(); ; {
		if w&markBit != 0 && r == rankHead {
			return fmt.Errorf("hashmap: head at sokey %#x is marked", s)
		}
		if atEnd(w) {
			break
		}
		link := w &^ (headState | markBit)
		if seen[link] {
			return fmt.Errorf("hashmap: cycle at link %#x", link)
		}
		seen[link] = true
		cs, cr := dummySoKey(bucketOf(link)), rankHead
		if n := h.record(link); n != nil {
			if recLink(n.index()) != link {
				return fmt.Errorf("hashmap: link %#x names a record with index %d", w, n.index())
			}
			cs, cr, w = n.sokey, rankRegular, n.next.Load()
			if w&headState != 0 {
				return fmt.Errorf("hashmap: record at sokey %#x has head state in its link %#x", cs, w)
			}
		} else if b := bucketOf(link); b >= size {
			return fmt.Errorf("hashmap: link to bucket %d of a %d-bucket table", b, size)
		} else if w = h.headOf(b).Load(); w&headState == 0 {
			return fmt.Errorf("hashmap: bucket %d's head is on the list unclaimed", b)
		}
		if cmpPos(s, r, cs, cr) >= 0 {
			return fmt.Errorf("hashmap: out of split order: (%#x,%d) before (%#x,%d)", s, r, cs, cr)
		}
		s, r = cs, cr
	}
	// Every linked head is on the list. (A head still claimed belongs to an
	// operation in flight, or to a claimer that never came back.)
	for b := uint64(1); b < size; b++ {
		if h.headOf(b).Load()&headState == headLinked && !seen[headLink(b)] {
			return fmt.Errorf("hashmap: bucket %d's head is linked but not reachable", b)
		}
	}
	return nil
}

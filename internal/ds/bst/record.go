// Package bst implements the lock-free external (leaf-oriented) binary
// search tree of Ellen, Fatourou, Ruppert and van Breugel, programmed
// against the Record Manager abstraction so that any reclamation scheme can
// be plugged in. It is the primary data structure of the paper's evaluation
// (the paper uses Brown's balanced chromatic tree, which has the same
// reclamation-relevant structure — searches traverse marked/retired nodes,
// updates synchronise through flag/mark descriptors, and helping uses those
// descriptors — which is why this tree substitutes for it in the
// reproduction's evaluation).
//
// # Memory layout
//
// The Record Manager manages the tree's nodes only: internal nodes and
// leaves share one Record type with a kind discriminator. Byte map of
// Record[uint32] and Record[int64], both 64 bytes — one cache line of a
// 64-byte-aligned slab:
//
//	off  field   internal node                  leaf
//	  0  meta    kind | poison                  same
//	  8  key     routing key                    key
//	 16  left    left child                     nil
//	 24  right   right child                    nil
//	 32  update  update word (state|slot|seq)   0
//	 40  value   -                              value
//	 44  (pad to 64; 48 for Record[int64])
//
// A search reads kind, key, one child and update of every node on its path,
// and Get the leaf's value: bytes 0-48. A V wider than 8 bytes grows the
// record past one line.
//
// # Update words and descriptors
//
// Ellen et al. store a (state, Info*) pair in each internal node's update
// field and allocate an Info record per operation. Go cannot tag a pointer,
// so this tree follows Brown's "Reuse, don't Recycle" (DISC 2017) instead:
// every worker slot owns one operation descriptor (threadState.desc), which
// is never allocated, retired or freed — descriptors are not Record Manager
// records. An update word packs the state in its low 2 bits, the owning slot
// in the next 16 and the slot's operation sequence number above them. A slot
// takes the next seq for each operation attempt that may publish, so a word
// names one operation attempt for the tree's lifetime. A new internal node
// starts clean with the id of the insert that creates it (the root with 0),
// so a record's word never returns to a value it held, even across
// recycling: the ABA protection the original algorithm gets from Info
// pointers.
//
// The owner writes its descriptor's seq first and the other fields after,
// then publishes the flag word. A helper that reads a flag or mark word
// (slot, seq) copies the slot's descriptor fields and then re-reads its seq.
// If the seq still equals the word's, the copy is that operation's: a field
// written for a later operation is written after the later seq, so reading
// it would have made the seq re-read see the later seq. If the seq moved,
// the operation the word names has finished (a slot starts a new attempt
// only after its last one unflagged its node or never flagged it), so the
// helper does not act; its caller re-reads the node's word by restarting.
//
// # Reclamation protocol
//
// Nodes are retired by the operation that unlinks them: a delete retires the
// spliced-out internal node and the removed leaf, an insert the leaf it
// replaces with a copy. The owner retires them only after the operation's
// flag is off the node it flagged, and a delete only after its p is spliced
// out. A helper reads a flag or mark word from a node it reached while
// pinned (epoch schemes). A flag word was still on its node at that read,
// so every retire of the operation comes later. A mark word sits on a p the
// helper reached, and only a reader pinned since before p's unlink can reach
// p, so again every retire comes later. Either way each record a validated
// copy names — p, l, gp, the new internal node — is retired, if at all,
// after the helper pinned, and is not freed before the helper unpins. The
// helper's CASes on those records are therefore safe even if the operation
// has finished meanwhile, and they then fail: no update word recurs, and no
// child pointer can again name a record the helper's pin keeps from reuse.
// Per-record schemes (HP) never help: the owner CASes only on records its
// search protected and validated, and a stale expected word fails rather
// than ABA.
package bst

import (
	"sync/atomic"

	"repro/internal/core"
)

// Kind discriminates the role a Record is currently playing.
type Kind uint8

// Record kinds.
const (
	// KindFree marks a record that is not currently in use (fresh from the
	// allocator or recycled through the pool).
	KindFree Kind = iota
	// KindInternal is a routing node with a key and two children.
	KindInternal
	// KindLeaf holds a key/value pair.
	KindLeaf
)

// state is the update-word state of the original algorithm: the low bits
// of an update word.
type state uint8

// Update states from the original algorithm.
const (
	stateClean state = iota
	stateIFlag
	stateDFlag
	stateMark
)

// Update-word layout: state in bits 0-1, slot in bits 2-17, seq above.
const (
	stateBits = 2
	slotBits  = 16
	stateMask = 1<<stateBits - 1
	// maxSlots is the worker-slot capacity a word can name.
	maxSlots = 1 << slotBits
	// seqOne is seq 1 in an update word: the step between a slot's
	// consecutive operation ids.
	seqOne = 1 << (stateBits + slotBits)
)

// wordState returns an update word's state.
func wordState(w uint64) state { return state(w & stateMask) }

// wordOp returns the operation id an update word names: the word with its
// state bits clear.
func wordOp(w uint64) uint64 { return w &^ stateMask }

// wordSlot returns the worker slot whose descriptor an update word names.
func wordSlot(w uint64) int { return int(w>>stateBits) & (maxSlots - 1) }

// Operation outcomes, the low bits of descriptor.outcome.
const (
	outcomePending   = 0
	outcomeSucceeded = 1
	outcomeFailed    = 2
)

// descriptor is one worker slot's reusable operation descriptor. The owner
// writes it (id first) before publishing a flag word; helpers read it
// concurrently, so every field is atomic. The state of the word that names
// the descriptor tells a helper the operation's kind.
type descriptor[V any] struct {
	// id is the current operation's id (slot and seq, state bits clear).
	id atomic.Uint64
	// outcome is an operation id with the outcome in its state bits. The
	// owner stores id|outcomePending once the attempt's recovery
	// protections are in place; before that it holds an earlier id, which
	// is how DEBRA+ recovery tells an attempt that may have published.
	outcome  atomic.Uint64
	key      atomic.Int64              // the key the operation searched for
	p        atomic.Pointer[Record[V]] // the parent of the leaf
	l        atomic.Pointer[Record[V]] // the leaf the operation applies to
	aux      atomic.Pointer[Record[V]] // insert: the new internal node; delete: gp
	pupdate  atomic.Uint64             // p's update word as the search saw it
	gpupdate atomic.Uint64             // delete: gp's update word as the search saw it
}

// op is a copy of a descriptor's fields for one operation, the form the
// help procedures work on.
type op[V any] struct {
	d                 *descriptor[V]
	id                uint64
	key               int64
	p, l, aux         *Record[V]
	pupdate, gpupdate uint64
}

// load copies the descriptor's fields for operation id.
func (d *descriptor[V]) load(id uint64) op[V] {
	return op[V]{
		d: d, id: id, key: d.key.Load(),
		p: d.p.Load(), l: d.l.Load(), aux: d.aux.Load(),
		pupdate: d.pupdate.Load(), gpupdate: d.gpupdate.Load(),
	}
}

// store writes the slot's descriptor for operation o: the id first, so a
// helper still copying the slot's previous operation sees the id move.
// Only the owning slot calls it.
func (d *descriptor[V]) store(o *op[V]) {
	d.id.Store(o.id)
	d.key.Store(o.key)
	d.p.Store(o.p)
	d.l.Store(o.l)
	d.aux.Store(o.aux)
	d.pupdate.Store(o.pupdate)
	if o.gpupdate != d.gpupdate.Load() { // an insert's is 0: skip the XCHG

		d.gpupdate.Store(o.gpupdate)
	}
}

// snapshot copies the fields of the operation update word w names, and
// reports whether the copy is that operation's: false when the slot has
// moved on, in which case the operation is finished.
func (d *descriptor[V]) snapshot(w uint64) (op[V], bool) {
	o := d.load(wordOp(w))
	return o, o.current()
}

// current reports whether o's slot is still on operation o. Read after the
// fields, it validates the copy.
func (o *op[V]) current() bool { return o.d.id.Load() == o.id }

// decided returns the operation's outcome, outcomePending while undecided.
func (o *op[V]) decided() uint64 {
	if v := o.d.outcome.Load(); wordOp(v) == o.id {
		return v & stateMask
	}
	return outcomePending
}

// decide records the operation's outcome if it is still undecided.
func (o *op[V]) decide(outcome uint64) {
	o.d.outcome.CompareAndSwap(o.id|outcomePending, o.id|outcome)
}

// Record is the single managed record type of the tree: internal node or
// leaf, discriminated by kind. Folding the roles into one type lets a
// single Record Manager (and therefore a single reclaimer instance with one
// epoch announcement per operation) manage every allocation the tree makes.
// The package comment has the byte map.
type Record[V any] struct {
	// meta holds the kind in bits 0-7 and the reclaimtest poison flag in
	// bit 8. It is atomic because the test pool wrappers set and clear the
	// flag; the tree itself only loads it (a plain MOV).
	meta   atomic.Uint32
	key    int64
	left   atomic.Pointer[Record[V]]
	right  atomic.Pointer[Record[V]]
	update atomic.Uint64 // internal nodes: the update word; see the package comment
	value  V

	_ [16]byte // rounds Record[uint32] and Record[int64] up to one cache line
}

const (
	kindMask  uint32 = 0xff
	poisonBit uint32 = 1 << 8
)

// Poison implements the reclaimtest Poisonable contract: mark the record as
// freed, reporting whether it already was (a double free). See the hash
// map's Node for the contract; nothing on the tree's hot path reads the flag.
func (r *Record[V]) Poison() bool { return r.meta.Or(poisonBit)&poisonBit != 0 }

// Unpoison clears the freed mark (called by pool wrappers on reuse).
func (r *Record[V]) Unpoison() { r.meta.And(^poisonBit) }

// IsPoisoned reports whether the record is currently marked freed.
func (r *Record[V]) IsPoisoned() bool { return r.meta.Load()&poisonBit != 0 }

// Kind returns the record's current role.
func (r *Record[V]) Kind() Kind { return Kind(r.meta.Load() & kindMask) }

// Key returns the record's key (meaningful for nodes).
func (r *Record[V]) Key() int64 { return r.key }

// Value returns the record's value (meaningful for leaves).
func (r *Record[V]) Value() V { return r.value }

// IsLeaf reports whether the record is currently a leaf node.
func (r *Record[V]) IsLeaf() bool { return r.Kind() == KindLeaf }

// setKind assigns the role of a record the caller owns exclusively. A record
// handed out by an allocator or pool is never poisoned, so the whole word is
// the kind.
func (r *Record[V]) setKind(k Kind) {
	if r.meta.Load() != uint32(k) {
		r.meta.Store(uint32(k))
	}
}

// setPtr stores v unless the field already holds it: re-initialisation
// mostly finds nil where it wants nil, and the load is far cheaper than the
// XCHG of an atomic store.
func setPtr[T any](p *atomic.Pointer[T], v *T) {
	if p.Load() != v {
		p.Store(v)
	}
}

// setNode fills the slots both node roles use.
func (r *Record[V]) setNode(key int64, value V, left, right *Record[V], update uint64) {
	r.value = value
	r.key = key
	setPtr(&r.left, left)
	setPtr(&r.right, right)
	if r.update.Load() != update {
		r.update.Store(update)
	}
}

// initLeaf (re)initialises a record as a leaf.
func initLeaf[V any](r *Record[V], key int64, value V) *Record[V] {
	r.setKind(KindLeaf)
	r.setNode(key, value, nil, nil, 0)
	return r
}

// initInternal (re)initialises a record as an internal node with the given
// children and clean update word. The kind is written last here and first
// in the leaf role, so a record says KindInternal only while its child slots
// hold children. Epoch-covered readers never see a record change role; this
// keeps a hazard-pointer search that stepped onto a recycled record (the
// window Tree.search describes) from following a leaf's stale children.
func initInternal[V any](r *Record[V], key int64, left, right *Record[V], clean uint64) *Record[V] {
	var zero V
	r.setNode(key, zero, left, right, clean)
	r.setKind(KindInternal)
	return r
}

// Manager is the Record Manager type the tree programs against.
type Manager[V any] = core.RecordManager[Record[V]]

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
// All records managed by the tree — internal nodes, leaves and operation
// descriptors (Info records) — are folded into a single Record type with a
// kind discriminator, so one Record Manager instance serves the whole tree.
// A record plays one role at a time, so the descriptor's fields are laid
// over the node's. Byte map of Record[uint32] and Record[int64], both 128
// bytes — two cache lines of a 64-byte-aligned slab, never a third:
//
//	off  field     internal node     leaf      IInfo               DInfo
//	  0  meta      kind | poison     same      same                same
//	  4  outcome   -                 -         pending/succeeded   pending/succeeded/failed
//	  8  value     -                 value     -                   -
//	 16  key       routing key       key       search key          search key
//	 24  left      left child        nil       p  (leaf's parent)  p
//	 32  right     right child       nil       l  (the leaf)       l
//	 40  update    flag/mark/clean   nil       nil                 nil
//	 48  aux       nil               nil       newChild            gp (grandparent)
//	 56  pupdate   nil               nil       p's update, as the search saw it
//	 64  gpupdate  nil               nil       nil                 gp's update, as seen
//	 72  flagCell  } the three addresses a node's update field can hold while
//	 88  markCell  } this record is an Info; untouched in the node roles
//	104  cleanCell }
//	120  (pad to 128)
//
// A search reads kind, key, one child and update of every node on its path:
// bytes 0-48, all in the record's first line. The second line is touched only
// by the operation that owns or helps a descriptor. A V wider than 8 bytes
// grows the record from offset 8.
//
// The (state, Info*) pairs that Ellen et al. store in each internal node's
// update field are represented without pointer tagging (which would hide
// pointers from Go's garbage collector): every Info record embeds three
// UpdateCell values — a flag cell, a mark cell and a clean cell — and a
// node's update field points at one of those cells. Which cell it points at
// encodes the state; the cell's owner pointer leads back to the Info record.
// Cells are part of the Info record's allocation, so protecting the Info
// protects the cells, and the unique cell addresses preserve the
// ABA-prevention role the original algorithm assigns to the Info pointer.
//
// Re-initialising a recycled record stores only what the new role needs and
// what the old role left set: a cell's owner pointer is written once in the
// record's life (it only ever names the record itself), and the atomic fields
// are cleared only when they hold something, because an atomic store is an
// XCHG and a successful insert initialises four records.
//
// # Reclamation protocol
//
// Nodes are retired by the operation that unlinks them (delete retires the
// spliced-out internal node and the removed leaf; insert retires the leaf it
// replaces with a copy). Info records are retired by the thread whose CAS
// removes the last tree-internal reference to them: every successful CAS of
// an update field from a Clean cell of Info A to a cell of Info B retires A.
// This "retire on replace" rule is what lets readers validate that a cell
// they loaded still belongs to a live Info simply by re-reading the update
// field.
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
	// KindIInfo is an insertion descriptor.
	KindIInfo
	// KindDInfo is a deletion descriptor.
	KindDInfo
)

// State is the update-field state encoded by which cell of an Info record a
// node's update field points to.
type State uint8

// Update states from the original algorithm.
const (
	StateClean State = iota
	StateIFlag
	StateDFlag
	StateMark
)

// UpdateCell is one of the addresses an internal node's update field can
// hold. Cells are embedded in Info records (and one process-wide initial
// cell represents "clean, no operation yet").
//
// The owner pointer is atomic because it is the one field a reader must
// load before it can protect (and only then validate) the owning Info
// record: that load can race with the re-initialisation of a recycled
// record, and its value is discarded when the subsequent validation fails.
// state, by contrast, is only read after validation (or under epoch cover),
// where the protection scheme's synchronisation already orders it against
// recycling.
type UpdateCell[V any] struct {
	state State
	info  atomic.Pointer[Record[V]] // owning Info record; nil only for the initial cell
}

// State returns the update state this cell encodes.
func (c *UpdateCell[V]) State() State { return c.state }

// Info returns the Info record owning this cell (nil for the initial cell).
func (c *UpdateCell[V]) Info() *Record[V] { return c.info.Load() }

// set initialises a cell in place (cells cannot be copy-assigned once they
// contain an atomic pointer). An embedded cell's owner is its record for the
// record's whole life, so only the first initialisation stores it.
func (c *UpdateCell[V]) set(state State, info *Record[V]) {
	c.state = state
	setPtr(&c.info, info)
}

// Record is the single managed record type of the tree: internal node, leaf
// or operation descriptor, discriminated by kind. Folding the roles into one
// type lets a single Record Manager (and therefore a single reclaimer
// instance with one epoch announcement per operation) manage every
// allocation the tree makes. The package comment has the byte map.
type Record[V any] struct {
	// meta holds the kind in bits 0-7 and the reclaimtest poison flag in
	// bit 8. It is atomic because the test pool wrappers set and clear the
	// flag; the tree itself only loads it (a plain MOV).
	meta atomic.Uint32
	// outcome records whether a published operation succeeded (1) or was
	// backtracked (2); 0 while undecided. It makes the owner's help
	// procedure idempotent across neutralization and recovery.
	outcome atomic.Int32
	value   V

	key    int64                     // Info: the key the operation searched for
	left   atomic.Pointer[Record[V]] // Info: p, the parent of the leaf
	right  atomic.Pointer[Record[V]] // Info: l, the leaf the operation applies to
	update atomic.Pointer[UpdateCell[V]]

	aux      *Record[V]     // IInfo: the replacement internal node; DInfo: gp, the leaf's grandparent
	pupdate  *UpdateCell[V] // Info: p's update value observed by the search
	gpupdate *UpdateCell[V] // DInfo: gp's update value observed by the search

	// The three update-cell addresses this record provides when acting as
	// an Info record.
	flagCell  UpdateCell[V]
	markCell  UpdateCell[V]
	cleanCell UpdateCell[V]

	_ [8]byte // rounds Record[uint32] and Record[int64] up to two cache lines
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

// Operation outcomes stored in Record.outcome.
const (
	outcomePending   = 0
	outcomeSucceeded = 1
	outcomeFailed    = 2
)

// Kind returns the record's current role.
func (r *Record[V]) Kind() Kind { return Kind(r.meta.Load() & kindMask) }

// Key returns the record's key (meaningful for nodes).
func (r *Record[V]) Key() int64 { return r.key }

// Value returns the record's value (meaningful for leaves).
func (r *Record[V]) Value() V { return r.value }

// IsLeaf reports whether the record is currently a leaf node.
func (r *Record[V]) IsLeaf() bool { return r.Kind() == KindLeaf }

// Descriptor views of the overlaid slots.

func (r *Record[V]) infoP() *Record[V]        { return r.left.Load() }
func (r *Record[V]) infoL() *Record[V]        { return r.right.Load() }
func (r *Record[V]) infoGP() *Record[V]       { return r.aux }
func (r *Record[V]) infoNewChild() *Record[V] { return r.aux }

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

// setNode fills the slots the node roles share; the descriptor-only slots
// are cleared so a recycled record does not pin stale references.
func (r *Record[V]) setNode(key int64, value V, left, right *Record[V], update *UpdateCell[V]) {
	r.value = value
	r.key = key
	setPtr(&r.left, left)
	setPtr(&r.right, right)
	setPtr(&r.update, update)
	r.aux, r.pupdate, r.gpupdate = nil, nil, nil
}

// initLeaf (re)initialises a record as a leaf.
func initLeaf[V any](r *Record[V], key int64, value V) *Record[V] {
	r.setKind(KindLeaf)
	r.setNode(key, value, nil, nil, nil)
	return r
}

// initInternal (re)initialises a record as an internal node with the given
// children and a clean update field. The kind is written last here and first
// in every other role, so a record says KindInternal only while its child
// slots hold children. Epoch-covered readers never see a record change role;
// this keeps a hazard-pointer search that stepped onto a recycled record (the
// window Tree.search describes) from following a descriptor's p or l as if it
// were a child.
func initInternal[V any](r *Record[V], key int64, left, right *Record[V], clean *UpdateCell[V]) *Record[V] {
	var zero V
	r.setNode(key, zero, left, right, clean)
	r.setKind(KindInternal)
	return r
}

// initInfo fills the slots the two descriptor roles share.
func (r *Record[V]) initInfo(k Kind, flag State, key int64, p, l, aux *Record[V], pupdate, gpupdate *UpdateCell[V]) *Record[V] {
	var zero V
	r.setKind(k)
	if r.outcome.Load() != outcomePending {
		r.outcome.Store(outcomePending)
	}
	r.value = zero
	r.key = key
	setPtr(&r.left, p)
	setPtr(&r.right, l)
	setPtr(&r.update, nil)
	r.aux, r.pupdate, r.gpupdate = aux, pupdate, gpupdate
	r.flagCell.set(flag, r)
	r.markCell.set(StateMark, r)
	r.cleanCell.set(StateClean, r)
	return r
}

// initIInfo (re)initialises a record as an insertion descriptor.
func initIInfo[V any](r *Record[V], key int64, p, l, newChild *Record[V], pupdate *UpdateCell[V]) *Record[V] {
	return r.initInfo(KindIInfo, StateIFlag, key, p, l, newChild, pupdate, nil)
}

// initDInfo (re)initialises a record as a deletion descriptor.
func initDInfo[V any](r *Record[V], key int64, gp, p, l *Record[V], pupdate, gpupdate *UpdateCell[V]) *Record[V] {
	return r.initInfo(KindDInfo, StateDFlag, key, p, l, gp, pupdate, gpupdate)
}

// Manager is the Record Manager type the tree programs against.
type Manager[V any] = core.RecordManager[Record[V]]

package epoch

import (
	"repro/internal/blockbag"
	"repro/internal/core"
)

// Bags is a Domain whose threads each keep a private limbo (qsbr, debra,
// debra+); it adds the scheme-object methods that reach into one.
type Bags[T any] struct {
	*Domain[T]
	limbos []*Limbo[T]
}

// NewBags is New for a scheme with private limbo bags.
func NewBags[T any](name string, n int, sink core.FreeSink[T], opts []Option) Bags[T] {
	return Bags[T]{Domain: New(name, n, sink, opts), limbos: make([]*Limbo[T], n)}
}

// BlockPool returns the block pool slot tid's bags are to draw from: the
// one the sink empties tid's freed blocks into. Full blocks travel one way,
// from a bag to the sink, so a pool of the slot's own would allocate a block
// per BlockSize retires for as long as the thread runs while the sink's
// overflowed and dropped as many. Only the owner of tid may use it.
func (d *Domain[T]) BlockPool(tid int) *blockbag.BlockPool[T] { return d.sink.BlockPool(tid) }

// BindLimbo makes l slot tid's thread and limbo, its bags drawing from
// BlockPool(tid).
func (b *Bags[T]) BindLimbo(tid int, l *Limbo[T]) {
	b.Bind(tid, &l.Thread)
	bp := b.BlockPool(tid)
	for i := range l.bags {
		l.bags[i] = blockbag.New(bp)
	}
	b.limbos[tid] = l
}

// DrainLimbo implements core.Reclaimer: free what every thread's bags hold,
// partial blocks included, except records a forced Sweep keeps. Only safe
// once every thread is quiescent for good and the caller holds a
// happens-before edge from their last operation; tid is charged for the frees.
func (b *Bags[T]) DrainLimbo(tid int) int64 {
	b.RequireAllQuiescent()
	by := b.threads[tid]
	var n int64
	for _, l := range b.limbos {
		for _, bag := range l.bags {
			n += by.Free(l.freeable(bag, true))
		}
	}
	return n
}

// LimboSize returns the number of records waiting in tid's bags
// (instrumentation; approximate while tid is running).
func (b *Bags[T]) LimboSize(tid int) int {
	n := 0
	for _, bag := range b.limbos[tid].bags {
		n += bag.Len()
	}
	return n
}

// Limbo is a Thread with a private three-bag limbo. Each record waits under
// a tag, an epoch the thread loaded after the record became unreachable (at
// epoch u <= tag), and may be freed once some pass has verified epoch
// tag+Inc: when the thread's own pass for tag+Inc completes, or at its first
// rotation to an epoch at least tag+2·Inc, which someone verified tag+Inc to
// install. Epoch tag+Inc was installed after that load, so after the unlink,
// and so is every pass for it. A thread that can still reach the record began
// its operation before the unlink, so its announcement is at most u; a pass
// for tag+Inc stops at its slot until it leaves the operation. A thread seen
// announcing tag+Inc began its operation after the unlink. This is the grace
// period ebr and qsbr keep too.
//
// The tags are relative to filed, the epoch the thread last rotated to (the
// policy rotates to every epoch it announces). A retire loads the epoch g,
// which is at least u because the record was unlinked before the load. When
// g == filed the record goes to cur, tagged filed. Otherwise it goes to late,
// whose tag is the epoch of the next rotation: the thread loads that epoch
// after the retire, so it is at least g. FreePrev, called when the thread's
// pass for filed completes, frees prev (tagged filed-Inc). A rotation to E
// frees prev, and cur too when E is two or more epochs on; late becomes cur
// at tag E, and cur, if kept, becomes prev at tag E-Inc. So a record is freed
// by the thread's first pass that completes once the epoch has advanced past
// the one its retiring operation announced, or advanced twice when the epoch
// moved on under the operation (a late retire). A rotation never runs inside
// a retire, which costs one epoch load and one append.
//
// A policy under which the epoch can move past a live announcement (debra+'s
// suspicion) sets Late: the grace period above does not hold for it, so every
// retire is filed late, FreePrev does nothing and a rotation frees one bag
// however far the epoch jumped, and a record waits for the third epoch the
// thread observes after the one it last rotated to.
type Limbo[T any] struct {
	Thread[T]

	// Sweep, when non-nil, chooses what a rotation frees in place of "the
	// whole bag": it detaches and returns the records of bag that may go now
	// (debra+: every record no recovery protection covers, and nothing until
	// the bag is worth a table scan — unless force is set, as it is at
	// shutdown). What it does not return stays in the bag.
	Sweep func(bag *blockbag.Bag[T], force bool) *blockbag.Block[T]
	// Late files every retire in the late bag and frees one bag per
	// rotation.
	Late bool

	bags  [3]*blockbag.Bag[T] // prev, cur, late
	filed int64
}

// The bags by tag: filed-Inc, filed, and the epoch of the next rotation.
const (
	prev = iota
	cur
	late
)

// Retire implements core.ReclaimerHandle: add rec to the bag of the epoch it
// reads, O(1), pinning a quiescent thread around the append (BeginRetire).
func (l *Limbo[T]) Retire(rec *T) {
	a := l.BeginRetire(rec)
	l.bag().Add(rec)
	l.Retired.Inc()
	l.EndRetire(a)
}

// bag returns the bag a retire files under now.
func (l *Limbo[T]) bag() *blockbag.Bag[T] {
	if !l.Late && l.Epoch() == l.filed {
		return l.bags[cur]
	}
	return l.bags[late]
}

// Current returns the bag retires go to while the epoch stays at the one the
// thread last rotated to.
func (l *Limbo[T]) Current() *blockbag.Bag[T] {
	if l.Late {
		return l.bags[late]
	}
	return l.bags[cur]
}

// RotateTo moves the bags' tags on to epoch e, which the thread has just
// loaded and announced, and frees what it may of the bags whose tag is
// e-2·Inc or earlier (of prev alone, under Late). Rotating to the epoch the
// thread last rotated to does nothing.
func (l *Limbo[T]) RotateTo(e int64) {
	if e == l.filed {
		return
	}
	b := l.bags
	l.free(b[prev])
	if !l.Late && e-l.filed >= 2*Inc {
		l.free(b[cur])
	}
	l.filed = e
	l.bags = [3]*blockbag.Bag[T]{b[cur], b[late], b[prev]}
}

// FreePrev frees the bag tagged filed-Inc. The caller has just completed a
// verification pass for filed, the epoch it last rotated to and announces;
// under Late it does nothing.
func (l *Limbo[T]) FreePrev() {
	if !l.Late {
		l.free(l.bags[prev])
	}
}

// free hands what may go of bag to the sink. A lone thread observes a new
// epoch nearly every operation: an empty bag must cost nothing.
func (l *Limbo[T]) free(bag *blockbag.Bag[T]) { l.Free(l.freeable(bag, false)) }

// freeable detaches the blocks of bag that may be freed now: all of them,
// partial head included, unless a Sweep chooses.
func (l *Limbo[T]) freeable(bag *blockbag.Bag[T], force bool) *blockbag.Block[T] {
	if l.Sweep != nil {
		return l.Sweep(bag, force)
	}
	return bag.DetachAll()
}

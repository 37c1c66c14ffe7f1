package hp

import (
	"sync/atomic"

	"repro/internal/blockbag"
	"repro/internal/core"
)

// Table is a hazard table: k announcement slots for each of n threads, and
// the sweep that frees a bag around them. Hazard pointers keep their
// protections in one; DEBRA+ keeps its recovery protections in another. Row
// tid is written only by the thread that owns slot tid and read by every
// thread that sweeps.
type Table[T any] struct {
	rows []Slots[T]
	occ  *core.Occupancy
}

// Slots is one thread's row of a Table.
type Slots[T any] struct {
	ptrs []atomic.Pointer[T]
	// hw is owner-local: every announcement is in ptrs[:hw], so the owner's
	// own calls read only that prefix. A sweep reads every slot, so hw needs
	// no publication.
	hw  int
	set map[*T]struct{} // the announcements the owner's last sweep hashed
	_   [core.PadBytes]byte
}

// NewTable creates a table of k slots for each of n threads. A sweep skips
// the rows of threads occ reports vacant; with occ nil it reads every row.
func NewTable[T any](n, k int, occ *core.Occupancy) *Table[T] {
	t := &Table[T]{rows: make([]Slots[T], n), occ: occ}
	for i := range t.rows {
		t.rows[i].ptrs = make([]atomic.Pointer[T], k)
		t.rows[i].set = make(map[*T]struct{}, n*k)
	}
	return t
}

// Slots returns thread tid's row; only the owner of tid may use it.
func (t *Table[T]) Slots(tid int) *Slots[T] { return &t.rows[tid] }

// Protect announces rec, which must not be nil, and reports false when every
// slot is taken. A record already announced keeps its single slot, so one
// Unprotect releases it however often it was protected. The sequentially
// consistent store is the fence hazard pointers need.
func (s *Slots[T]) Protect(rec *T) bool {
	free := -1
	for i := range s.hw {
		switch s.ptrs[i].Load() {
		case rec:
			return true
		case nil:
			if free < 0 {
				free = i
			}
		}
	}
	if free < 0 {
		if s.hw == len(s.ptrs) {
			return false
		}
		free = s.hw
		s.hw++
	}
	s.ptrs[free].Store(rec)
	return true
}

// Unprotect withdraws the announcement of rec, if any.
func (s *Slots[T]) Unprotect(rec *T) {
	for i := range s.hw {
		if s.ptrs[i].Load() == rec {
			s.ptrs[i].Store(nil)
			for s.hw > 0 && s.ptrs[s.hw-1].Load() == nil {
				s.hw--
			}
			return
		}
	}
}

// Clear withdraws every announcement.
func (s *Slots[T]) Clear() {
	for i := range s.hw {
		if s.ptrs[i].Load() != nil {
			s.ptrs[i].Store(nil)
		}
	}
	s.hw = 0
}

// Empty reports whether the row announces nothing.
func (s *Slots[T]) Empty() bool {
	for i := range s.hw {
		if s.ptrs[i].Load() != nil {
			return false
		}
	}
	return true
}

// Sweep hashes every announcement in the table and detaches from bag, in one
// chain for core.FreeSink.FreeBlocks, every record none covers: the bag keeps
// only announced records, and a bag with none leaves whole. The sweeper
// tid's row holds the hash set, so a sweep allocates nothing once the set has
// grown; bag is tid's, or the caller holds it alone.
//
// A record in bag was unreachable before it got there, so an announcement the
// sweep misses because it was stored after the sweep read the slot fails the
// announcer's validation, and the announcer restarts. That also covers the
// rows of vacant threads the sweep skips: release requires an empty row, and
// a new owner's first announcement is validated like any other.
func (t *Table[T]) Sweep(tid int, bag *blockbag.Bag[T]) *blockbag.Block[T] {
	set := t.rows[tid].set
	clear(set)
	for i := range t.rows {
		if t.occ != nil && !t.occ.Occupied(i) {
			continue
		}
		ptrs := t.rows[i].ptrs
		for j := range ptrs {
			if rec := ptrs[j].Load(); rec != nil {
				set[rec] = struct{}{}
			}
		}
	}
	if len(set) == 0 {
		return bag.DetachAll()
	}
	return bag.Sift(func(rec *T) bool {
		_, ok := set[rec]
		return ok
	})
}

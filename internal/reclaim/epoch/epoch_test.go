package epoch

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/reclaimtest"
)

type rec = reclaimtest.Record

// machine is the epoch machine with no policy on it: n bound limbos over a
// recording sink, with a slot registry attached so that slots can be vacant.
type machine struct {
	Bags[rec]
	l    []Limbo[rec]
	sink *reclaimtest.RecordingSink
}

// newMachine builds the machine over n slots and leaves exactly the given
// slots occupied (it acquires all n and releases the rest).
func newMachine(t *testing.T, n int, occupied ...int) *machine {
	t.Helper()
	m := &machine{sink: reclaimtest.NewRecordingSink(), l: make([]Limbo[rec], n)}
	m.Bags = NewBags[rec]("test", n, m.sink, nil)
	for i := range m.l {
		m.BindLimbo(i, &m.l[i])
	}
	reg := core.NewSlotRegistry(n)
	m.occ.Attach(reg)
	keep := make(map[int]bool)
	for _, tid := range occupied {
		keep[tid] = true
	}
	for i := 0; i < n; i++ {
		if _, ok := reg.Acquire(); !ok {
			t.Fatal("registry exhausted")
		}
	}
	for i := 0; i < n; i++ {
		if !keep[i] {
			reg.Release(i)
		}
	}
	return m
}

// stall leaves slot tid inside an operation at an epoch that is not e.
func (m *machine) stall(tid int, e int64) { m.slots[tid].v.Store(e - Inc) }

func TestVerifySkipsVacantSlots(t *testing.T) {
	m := newMachine(t, 4, 0, 1)
	e := m.Epoch()
	// Slot 2 is vacant; a stale non-quiescent announcement left in it (which
	// the release contract forbids) shows that vacant slots are not read.
	m.stall(2, e)
	v := &m.l[0]
	if got := v.Verify(0, e, All); got != v.PassLen() {
		t.Fatalf("pass stopped at %d of %d on a vacant slot", got, v.PassLen())
	}
	if got := m.Stats().Scans; got != 1 {
		t.Fatalf("Scans = %d after one completed pass", got)
	}
	// The same announcement in an occupied slot holds the epoch back.
	m.stall(1, e)
	if got := v.Verify(0, e, All); got != 1 {
		t.Fatalf("pass reached %d, want it stopped at member 1", got)
	}
	if got := m.Stats().Scans; got != 1 {
		t.Fatalf("Scans = %d, a failed pass was counted", got)
	}
}

func TestVerifyBudgetCountsLiveMembersOnly(t *testing.T) {
	m := newMachine(t, 6, 0, 4, 5)
	e := m.Epoch()
	v := &m.l[0]
	// One check per call: slots 0, 4 and 5 are live; the vacant 1-3 are
	// passed over for free on the way to the next live slot.
	pos := 0
	for _, want := range []int{4, 5, 6} {
		if pos = v.Verify(pos, e, 1); pos != want {
			t.Fatalf("Verify reached %d, want %d", pos, want)
		}
	}
	if pos != v.PassLen() {
		t.Fatalf("PassLen = %d", v.PassLen())
	}
}

func TestSuspectHookOnlyOnFailingMembers(t *testing.T) {
	m := newMachine(t, 3, 0, 1, 2)
	e := m.Epoch()
	var asked []int
	v := &m.l[0]
	v.Suspect = func(other int) bool { asked = append(asked, other); return true }
	m.stall(2, e)
	if got := v.Verify(0, e, All); got != v.PassLen() {
		t.Fatalf("pass stopped at %d though the hook vouched for the laggard", got)
	}
	if len(asked) != 1 || asked[0] != 2 {
		t.Fatalf("hook consulted about %v, want [2]", asked)
	}
}

// tick moves the domain epoch on by one step, as an advance winner would.
func (m *machine) tick() int64 { return m.epoch.Add(Inc) }

// advance verifies the current epoch over every slot and moves it on.
func (m *machine) advance(t *testing.T) {
	t.Helper()
	e, v := m.Epoch(), &m.l[0]
	if v.Verify(0, e, All) != v.PassLen() || !v.Advance(e) {
		t.Fatalf("could not advance from %d", e)
	}
}

// begin is slot l's operation boundary as debra and qsbr run it: load the
// epoch, announce it, rotate the bags to it.
func begin(l *Limbo[rec]) int64 {
	e := l.Epoch()
	l.Announce(e)
	l.RotateTo(e)
	return e
}

func TestRotationOrder(t *testing.T) {
	m := newMachine(t, 1, 0)
	l := &m.l[0]
	retire := func(b int, batch *[]*rec) {
		for i := 0; i < blockbag.BlockSize; i++ {
			r := &rec{ID: int64(b)}
			*batch = append(*batch, r)
			l.Retire(r)
		}
	}
	// One block under each of three epochs: two filed under the epoch the
	// thread rotated to, the third late, after an advance the thread has
	// not rotated to.
	var batches [3][]*rec
	l.RotateTo(m.Epoch())
	retire(0, &batches[0])
	m.tick()
	l.RotateTo(m.Epoch())
	retire(1, &batches[1])
	m.tick()
	retire(2, &batches[2])
	if m.sink.Freed() != 0 || m.LimboSize(0) != 3*blockbag.BlockSize {
		t.Fatalf("freed %d, limbo %d before the bags came round", m.sink.Freed(), m.LimboSize(0))
	}
	// Each further rotation frees the oldest batch, and only it: the first
	// is to the epoch the late batch read, which frees the batch two epochs
	// behind it.
	for b := range batches {
		if b > 0 {
			m.tick()
		}
		l.RotateTo(m.Epoch())
		if got := m.sink.Freed(); got != int64((b+1)*blockbag.BlockSize) {
			t.Fatalf("rotation %d: %d records freed", b, got)
		}
		for _, r := range batches[b] {
			if !m.sink.Contains(r) {
				t.Fatalf("rotation %d did not free its own batch", b)
			}
		}
	}
	if s := m.Stats(); s.Retired != s.Freed || s.Limbo != 0 {
		t.Fatalf("stats %+v", s)
	}
	// Rotating again to the same epoch, or to one the thread skipped to,
	// frees nothing it must not and everything it may.
	l.Retire(&rec{ID: 3})
	l.RotateTo(m.Epoch())
	if m.LimboSize(0) != 1 {
		t.Fatal("a rotation to the epoch the bags are at freed a record")
	}
	l.RotateTo(m.tick() + 4*Inc)
	if m.LimboSize(0) != 0 {
		t.Fatal("a rotation five epochs on left a record in limbo")
	}
}

// TestLateRetireSurvivesSecondAdvance is the safety half of filing a retire
// under the epoch it reads: a record unlinked after the epoch moved on under
// the retiring operation may still be in another thread's hands one advance
// after that, so it must wait as long as its retire is late.
func TestLateRetireSurvivesSecondAdvance(t *testing.T) {
	m := newMachine(t, 2, 0, 1)
	retirer, reader := &m.l[0], &m.l[1]
	e := begin(retirer)
	begin(reader)
	m.advance(t) // the epoch moves on under the retirer's operation
	begin(reader)
	r := &rec{ID: 1} // the reader, at e+Inc, reaches r; the retirer unlinks it
	retirer.Retire(r)
	retirer.EnterQstate()
	begin(retirer)
	retirer.EnterQstate()
	m.advance(t) // the reader still announces e+Inc, which holds the epoch here
	if got := begin(retirer); got != e+2*Inc {
		t.Fatalf("epoch %d, want %d", got, e+2*Inc)
	}
	if m.sink.Contains(r) {
		t.Fatal("a late retire was freed while a thread of the epoch it was unlinked in still runs")
	}
	retirer.EnterQstate()
	reader.EnterQstate()
	m.advance(t)
	begin(retirer)
	if !m.sink.Contains(r) {
		t.Fatal("a late retire outlived its three epochs")
	}
}

// TestStaleAnnouncementRetire: an announcement is published some time after
// the epoch it carries was loaded, and the epoch may move on in between, so
// an operation can start epochs after the one the thread rotated to. A record
// it unlinks is then only bounded by the epoch its retire reads, and waits
// two epochs after the thread's next rotation, however far that jumps.
func TestStaleAnnouncementRetire(t *testing.T) {
	m := newMachine(t, 2, 0, 1)
	retirer, reader := &m.l[0], &m.l[1]
	e := begin(retirer)
	retirer.EnterQstate()
	stale := retirer.Epoch() // the retirer's next LeaveQstate loads e ...
	m.advance(t)
	m.advance(t) // ... and publishes it only now, two epochs on
	retirer.Announce(stale)
	retirer.RotateTo(stale)
	begin(reader) // at e+2·Inc, reaches r
	r := &rec{ID: 1}
	retirer.Retire(r) // unlinked at e+2·Inc
	retirer.EnterQstate()
	m.advance(t) // the reader's announcement of e+2·Inc holds the epoch here
	if got := begin(retirer); got != e+3*Inc {
		t.Fatalf("epoch %d, want %d", got, e+3*Inc)
	}
	if m.sink.Contains(r) {
		t.Fatal("a retire under a stale announcement was freed while a thread of the epoch it was unlinked in still runs")
	}
	retirer.EnterQstate()
	reader.EnterQstate()
	for i := 0; i < 2; i++ {
		m.advance(t)
		begin(retirer)
		retirer.EnterQstate()
	}
	if !m.sink.Contains(r) {
		t.Fatal("not freed two epochs after the rotation that followed its retire")
	}
}

// TestLateLimboRotatesOnceAnEpoch: under Late (debra+) a retire waits for
// three rotations, however far the epoch jumped between them, because the
// epoch a record was unlinked at is not bounded by the thread's announcement.
func TestLateLimboRotatesOnceAnEpoch(t *testing.T) {
	m := newMachine(t, 1, 0)
	l := &m.l[0]
	l.Late = true
	l.RotateTo(m.Epoch())
	r := &rec{ID: 1}
	l.Retire(r)
	for i := 0; i < 3; i++ {
		if m.sink.Contains(r) {
			t.Fatalf("freed after %d rotations", i)
		}
		l.RotateTo(m.tick() + 2*Inc) // three epochs on each time
	}
	if !m.sink.Contains(r) {
		t.Fatal("not freed by the third rotation")
	}
}

func TestSweepHookChoosesWhatRotationFrees(t *testing.T) {
	m := newMachine(t, 1, 0)
	l := &m.l[0]
	var forced []bool
	l.Sweep = func(bag *blockbag.Bag[rec], force bool) *blockbag.Block[rec] {
		forced = append(forced, force)
		if !force {
			return nil
		}
		return bag.DetachAllFullBlocks()
	}
	kept := &rec{ID: -1} // lands in the partial head, which the hook keeps
	l.RotateTo(m.Epoch())
	for i := 0; i < blockbag.BlockSize; i++ {
		l.Retire(&rec{ID: int64(i)})
	}
	l.Retire(kept)
	for i := 0; i < 6; i++ {
		l.RotateTo(m.tick())
	}
	if m.sink.Freed() != 0 {
		t.Fatal("rotation freed records the hook withheld")
	}
	if got := m.DrainLimbo(0); got != int64(blockbag.BlockSize) {
		t.Fatalf("DrainLimbo freed %d, want everything the forced hook returned", got)
	}
	if m.sink.Contains(kept) || m.LimboSize(0) != 1 {
		t.Fatalf("the record the hook kept was not left in limbo (size %d)", m.LimboSize(0))
	}
	if !forced[len(forced)-1] || forced[0] {
		t.Fatalf("force flags %v: only DrainLimbo forces", forced)
	}
}

func TestBlockPoolBorrowing(t *testing.T) {
	// The limbo bags of slot i draw their blocks from the pool's block pool
	// for i, the one the pool empties freed blocks into.
	pl := pool.New[rec](2, arena.NewBump[rec](2, 0))
	b := NewBags[rec]("test", 2, pl, nil)
	ls := make([]Limbo[rec], 2)
	for i := range ls {
		bp := pl.BlockPool(i)
		gets := bp.Allocated() + bp.Recycled()
		b.BindLimbo(i, &ls[i])
		for j := 0; j < blockbag.BlockSize; j++ {
			ls[i].Retire(&rec{ID: int64(j)})
		}
		// Three head blocks at the bind, and one when the head fills.
		if got := bp.Allocated() + bp.Recycled() - gets; got != 4 {
			t.Fatalf("limbo %d took %d blocks from the pool's block pool, want 4", i, got)
		}
	}
}

func TestDrainLimboRefusesNonQuiescentSlot(t *testing.T) {
	m := newMachine(t, 2, 0, 1)
	m.l[1].Announce(m.Epoch())
	if !reclaimtest.Panics(func() { m.DrainLimbo(0) }) {
		t.Fatal("DrainLimbo ran while slot 1 was inside an operation")
	}
	m.l[1].EnterQstate()
	m.l[0].Retire(&rec{ID: 1})
	if got := m.DrainLimbo(0); got != 1 {
		t.Fatalf("DrainLimbo freed %d, want the partial block's one record", got)
	}
}

// TestPinKeepsAnnouncedEpoch: a quiescent thread's retire pins it at the
// epoch it last announced — a verifier of any other epoch stops at it — and
// leaves it quiescent at that epoch afterwards.
func TestPinKeepsAnnouncedEpoch(t *testing.T) {
	m := newMachine(t, 2, 0, 1)
	e := m.Epoch()
	l, v := &m.l[0], &m.l[1]
	l.Announce(e)
	l.EnterQstate()
	m.advance(t)
	r := &rec{ID: 1}
	a := l.BeginRetire(r)
	if l.IsQuiescent() {
		t.Fatal("pinned slot reads quiescent")
	}
	if got := v.Verify(0, m.Epoch(), All); got != 0 {
		t.Fatalf("a pass of the next epoch reached %d past the slot pinned at the previous one", got)
	}
	l.EndRetire(a)
	if !l.IsQuiescent() || l.Announce(e) {
		t.Fatal("pin and unpin must leave the announced epoch as it was")
	}
	l.EnterQstate()
	l.Retire(r)
	if !l.IsQuiescent() || m.LimboSize(0) != 1 {
		t.Fatalf("quiescent Retire: quiescent %v, limbo %d", l.IsQuiescent(), m.LimboSize(0))
	}
}

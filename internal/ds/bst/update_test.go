package bst

import (
	"testing"

	"repro/internal/recordmgr"
)

// nodeState is what a CAS can change in an internal node.
type nodeState struct {
	left, right *Record[int64]
	update      uint64
}

// snapshotNodes records every reachable internal node's CAS targets.
func snapshotNodes(tr *Tree[int64]) map[*Record[int64]]nodeState {
	m := map[*Record[int64]]nodeState{}
	var walk func(n *Record[int64])
	walk = func(n *Record[int64]) {
		if n == nil || n.Kind() != KindInternal {
			return
		}
		m[n] = nodeState{n.left.Load(), n.right.Load(), n.update.Load()}
		walk(n.left.Load())
		walk(n.right.Load())
	}
	walk(tr.root)
	return m
}

// TestStaleUpdateWordIsInert checks the validation that lets a slot reuse
// its descriptor. A helper holding the flag or mark word of an operation the
// slot has finished must do nothing, even while the slot's descriptor
// already describes its next operation, whose p and l are live; and a
// helper whose copy of the fields straddles the owner moving on must see
// its validation fail.
func TestStaleUpdateWordIsInert(t *testing.T) {
	mgr := recordmgr.MustBuild[Record[int64]](recordmgr.Config{
		Scheme: recordmgr.SchemeDEBRA, Threads: 2, UsePool: true,
	})
	tr := New(mgr)
	owner, helper := tr.AcquireHandle(), tr.AcquireHandle()
	defer tr.ReleaseHandle(owner)
	defer tr.ReleaseHandle(helper)
	for k := int64(0); k < 32; k += 2 {
		owner.Insert(k, k)
	}
	d := &owner.st.desc

	// Completed operations of the owner's slot, with the words they wrote.
	owner.Insert(7, 7)
	iflag := d.id.Load() | uint64(stateIFlag)
	owner.Delete(12)
	del := d.id.Load()
	stale := []uint64{iflag, del | uint64(stateDFlag), del | uint64(stateMark)}
	if o, ok := d.snapshot(del | uint64(stateMark)); !ok || o.key != 12 || o.l.key != 12 {
		t.Fatalf("snapshot of the slot's current operation: ok=%v key=%d", ok, o.key)
	}

	// The owner starts its next operation: an insert of 21 with its
	// descriptor written, exactly as insertBody leaves it before the flag
	// CAS.
	owner.rm.LeaveQstate()
	res := tr.search(owner, 21)
	left, right := res.l, initLeaf(owner.rm.Allocate(), 21, int64(21))
	if res.l.key > 21 {
		left, right = right, left
	}
	internal := initInternal(owner.rm.Allocate(), max(21, res.l.key), left, right, owner.nextOp())
	next := op[int64]{d: d, id: owner.nextOp(), key: 21, p: res.p, l: res.l, aux: internal, pupdate: res.pupdate}
	d.store(&next)
	d.outcome.Store(next.id | outcomePending)

	before := snapshotNodes(tr)
	helper.rm.LeaveQstate()
	for _, w := range stale {
		if _, ok := d.snapshot(w); ok {
			t.Errorf("snapshot of stale word %#x validated", w)
		}
		tr.help(helper, w)
	}
	helper.rm.EnterQstate()
	after := snapshotNodes(tr)
	if len(after) != len(before) {
		t.Errorf("help on stale words changed the tree: %d internal nodes, %d before", len(after), len(before))
	}
	for n, s := range before {
		if after[n] != s {
			t.Errorf("help on a stale word landed a CAS on node %d: %+v, was %+v", n.key, after[n], s)
		}
	}
	if got := d.outcome.Load(); got != next.id|outcomePending {
		t.Errorf("help on a stale word decided the next operation: outcome %#x", got)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}

	// The opposite order: the helper copies the fields of the live
	// operation, then the owner finishes it and moves on before the
	// helper validates.
	copied := d.load(next.id)
	if !copied.current() {
		t.Error("copy of the slot's live operation does not validate")
	}
	inserted := tr.ownerInsert(owner, &next)
	owner.rm.EnterQstate()
	if !inserted {
		t.Fatal("the owner's insert did not take effect")
	}
	if !owner.Insert(23, 23) {
		t.Fatal("Insert(23) failed")
	}
	if copied.current() {
		t.Error("the helper's copy still validates after the owner moved on")
	}
	if _, ok := d.snapshot(next.id | uint64(stateIFlag)); ok {
		t.Error("snapshot of the finished insert validated")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{7, 21, 23} {
		if !owner.Contains(k) {
			t.Errorf("key %d missing", k)
		}
	}
}

package qsbr_test

import (
	"testing"

	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/reclaim/qsbr"
	"repro/internal/reclaimtest"
)

func factory(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
	return qsbr.New[reclaimtest.Record](n, sink)
}

func TestConformance(t *testing.T) { reclaimtest.Conformance(t, factory) }

func TestStress(t *testing.T) { reclaimtest.Stress(t, factory, reclaimtest.DefaultStressOptions()) }

func TestSingleThreadReclaims(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := qsbr.New[reclaimtest.Record](1, sink)
	for i := 0; i < 6*blockbag.BlockSize; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatalf("no records freed: %+v", r.Stats())
	}
}

func TestStalledThreadBlocksReclamation(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := qsbr.New[reclaimtest.Record](2, sink)
	r.Handle(1).LeaveQstate() // stalled inside an operation, never announces quiescence
	for i := 0; i < 6*blockbag.BlockSize; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() != 0 {
		t.Fatal("QSBR freed records while a thread never passed a quiescent state")
	}
}

func TestOfflineThreadDoesNotBlock(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := qsbr.New[reclaimtest.Record](4, sink) // threads 1..3 never run
	for i := 0; i < 6*blockbag.BlockSize; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatal("offline threads blocked reclamation")
	}
}

func TestNewValidation(t *testing.T) {
	if !panics(func() { qsbr.New[reclaimtest.Record](0, reclaimtest.NewRecordingSink()) }) {
		t.Fatal("expected panic for n=0")
	}
	if !panics(func() { qsbr.New[reclaimtest.Record](1, nil) }) {
		t.Fatal("expected panic for nil sink")
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// --- sharded domains ---------------------------------------------------------

// TestShardedCrossShardSafety: a record retired in shard 0 must not be freed
// while a thread of shard 1 is online mid-operation.
func TestShardedCrossShardSafety(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := qsbr.New[reclaimtest.Record](4, sink, qsbr.WithShards(core.ShardSpec{Shards: 2}))
	r.Handle(3).LeaveQstate() // other-shard thread online, never announcing quiescence
	// Retire several blocks' worth: the retires may straddle one epoch
	// rotation, but at least one limbo bag then holds a full block (partial
	// head blocks stay behind by design, so assertions below are on freed
	// counts, not individual records).
	for i := 0; i < 4*blockbag.BlockSize; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	for i := 0; i < 200; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if got := sink.Freed(); got != 0 {
		t.Fatalf("%d records freed while an online thread of another shard had not passed a quiescent state", got)
	}
	r.Handle(3).EnterQstate()
	for i := 0; i < 200; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if got := sink.Freed(); got < int64(blockbag.BlockSize) {
		t.Fatalf("only %d records freed after the other shard went quiescent", got)
	}
}

// TestShardedOfflineShardDoesNotBlock: shards whose members never come
// online must not stall grace periods (the lagging-shard slow path).
func TestShardedOfflineShardDoesNotBlock(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := qsbr.New[reclaimtest.Record](4, sink, qsbr.WithShards(core.ShardSpec{Shards: 4}))
	for i := 0; i < 1000; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatal("offline shards blocked reclamation")
	}
}

// TestShardedStress runs the generic reclaimer stress over both placements.
func TestShardedStress(t *testing.T) {
	for _, placement := range []core.ShardPlacement{core.PlaceBlock, core.PlaceStripe} {
		t.Run(string(placement), func(t *testing.T) {
			reclaimtest.Stress(t, func(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
				return qsbr.New[reclaimtest.Record](n, sink, qsbr.WithShards(core.ShardSpec{Shards: 2, Placement: placement}))
			}, reclaimtest.DefaultStressOptions())
		})
	}
}

// TestRetireBlockSplice checks the O(1) batched-retire path.
func TestRetireBlockSplice(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := qsbr.New[reclaimtest.Record](1, sink)
	bag := blockbag.New[reclaimtest.Record](nil)
	recs := make([]*reclaimtest.Record, blockbag.BlockSize)
	for i := range recs {
		recs[i] = &reclaimtest.Record{ID: int64(i)}
		bag.Add(recs[i])
	}
	r.Handle(0).LeaveQstate()
	r.RetireBlock(0, bag.DetachAllFullBlocks())
	r.Handle(0).EnterQstate()
	if got := r.Stats().Retired; got != int64(blockbag.BlockSize) {
		t.Fatalf("Retired = %d want %d", got, blockbag.BlockSize)
	}
	for i := 0; i < 10; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	for _, rec := range recs {
		if !sink.Contains(rec) {
			t.Fatalf("record %d from the spliced block was never freed", rec.ID)
		}
	}
}

package core_test

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/reclaim/debra"
	"repro/internal/reclaim/ebr"
	"repro/internal/reclaim/epoch"
	"repro/internal/reclaimtest"
)

func TestShardMapBlockPlacement(t *testing.T) {
	m := core.NewShardMap(8, core.ShardSpec{Shards: 4, Placement: core.PlaceBlock})
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d want 4", m.Shards())
	}
	// Block placement keeps contiguous tids together.
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for tid, s := range want {
		if got := m.ShardOf(tid); got != s {
			t.Fatalf("ShardOf(%d) = %d want %d", tid, got, s)
		}
	}
	total := 0
	for s := 0; s < m.Shards(); s++ {
		members := m.Members(s)
		total += len(members)
		for _, tid := range members {
			if m.ShardOf(tid) != s {
				t.Fatalf("member %d of shard %d maps to shard %d", tid, s, m.ShardOf(tid))
			}
		}
	}
	if total != 8 {
		t.Fatalf("members cover %d tids, want 8", total)
	}
}

func TestShardMapStripePlacement(t *testing.T) {
	m := core.NewShardMap(8, core.ShardSpec{Shards: 3, Placement: core.PlaceStripe})
	for tid := 0; tid < 8; tid++ {
		if got := m.ShardOf(tid); got != tid%3 {
			t.Fatalf("ShardOf(%d) = %d want %d", tid, got, tid%3)
		}
	}
}

func TestShardMapUnevenBlockPlacementIsBalanced(t *testing.T) {
	m := core.NewShardMap(7, core.ShardSpec{Shards: 3})
	for s := 0; s < 3; s++ {
		if l := len(m.Members(s)); l < 2 || l > 3 {
			t.Fatalf("shard %d has %d members, want 2 or 3", s, l)
		}
	}
}

func TestShardMapClamping(t *testing.T) {
	// Zero / oversized shard counts clamp to [1, n].
	if got := core.NewShardMap(4, core.ShardSpec{}).Shards(); got != 1 {
		t.Fatalf("zero spec: %d shards, want 1", got)
	}
	if got := core.NewShardMap(2, core.ShardSpec{Shards: 64}).Shards(); got != 2 {
		t.Fatalf("oversized: %d shards, want 2", got)
	}
	if got := core.NewShardMap(3, core.ShardSpec{Shards: 2}).Spec().Placement; got != core.PlaceBlock {
		t.Fatalf("default placement = %q want %q", got, core.PlaceBlock)
	}
}

func TestParsePlacement(t *testing.T) {
	for name, want := range map[string]core.ShardPlacement{
		"": core.PlaceBlock, "block": core.PlaceBlock, "stripe": core.PlaceStripe,
	} {
		got, err := core.ParsePlacement(name)
		if err != nil || got != want {
			t.Fatalf("ParsePlacement(%q) = %q, %v", name, got, err)
		}
	}
	if _, err := core.ParsePlacement("socket"); err == nil {
		t.Fatal("ParsePlacement accepted an unknown policy")
	}
}

// chainOf builds a detached chain of full blocks holding n*BlockSize records.
func chainOf(t *testing.T, blocks int) *blockbag.Block[node] {
	t.Helper()
	bag := blockbag.New[node](nil)
	for i := 0; i < blocks*blockbag.BlockSize; i++ {
		bag.Add(&node{key: int64(i)})
	}
	chain := bag.DetachAllFullBlocks()
	if blockbag.ChainLen(chain) != blocks*blockbag.BlockSize {
		t.Fatalf("chain holds %d records", blockbag.ChainLen(chain))
	}
	return chain
}

// TestRetireChainFullBlocks: every block of the chain goes through
// RetireBlock. The retiring thread is quiescent, so the hand-off must happen
// inside a pin-while-retiring window (the epoch schemes reject an unpinned
// retire).
func TestRetireChainFullBlocks(t *testing.T) {
	r := ebr.New[node](1, pool.NewDiscard[node]())
	r.PinRetire(0)
	if n := core.RetireChain[node](r, 0, chainOf(t, 3), nil); n != 3*blockbag.BlockSize {
		t.Fatalf("RetireChain retired %d records of 3 full blocks", n)
	}
	r.UnpinRetire(0)
	if got := r.Stats().Retired; got != int64(3*blockbag.BlockSize) {
		t.Fatalf("Retired = %d", got)
	}
}

func TestRecordManagerRetireBatching(t *testing.T) {
	const n = 2
	const batch = blockbag.BlockSize
	alloc := arena.NewBump[node](n, 0)
	p := pool.New[node](n, alloc)
	rec := debra.New[node](n, p, epoch.WithCheckThresh(1), epoch.WithIncrThresh(1))
	mgr := core.NewRecordManager[node](alloc, p, rec, core.WithRetireBatching(n, batch))
	if mgr.RetireBatchSize() != batch {
		t.Fatalf("RetireBatchSize = %d", mgr.RetireBatchSize())
	}
	hs := reclaimtest.AcquireSlots(n, mgr.AcquireHandle)

	// Retire batch-1 records: everything parks in the buffer, nothing
	// reaches the reclaimer.
	hs[0].LeaveQstate()
	for i := 0; i < batch-1; i++ {
		hs[0].Retire(hs[0].Allocate())
	}
	if got := rec.Stats().Retired; got != 0 {
		t.Fatalf("reclaimer saw %d retires before the batch filled", got)
	}
	if got := mgr.Stats().RetirePending; got != batch-1 {
		t.Fatalf("RetirePending = %d want %d", got, batch-1)
	}
	// The batch-th retire hands the whole block over.
	hs[0].Retire(hs[0].Allocate())
	if got := rec.Stats().Retired; got != batch {
		t.Fatalf("reclaimer saw %d retires after the batch filled, want %d", got, batch)
	}
	if got := mgr.Stats().RetirePending; got != 0 {
		t.Fatalf("RetirePending = %d after flush", got)
	}
	hs[0].EnterQstate()

	// FlushRetired drains a partial buffer on demand.
	hs[1].LeaveQstate()
	hs[1].Retire(hs[1].Allocate())
	hs[1].Retire(hs[1].Allocate())
	hs[1].FlushRetired()
	hs[1].EnterQstate()
	if got := rec.Stats().Retired; got != batch+2 {
		t.Fatalf("after FlushRetired: reclaimer saw %d retires, want %d", got, batch+2)
	}
	if got := mgr.Stats().RetirePending; got != 0 {
		t.Fatalf("RetirePending = %d after explicit flush", got)
	}
}

func TestRecordManagerBatchingDisabledByDefault(t *testing.T) {
	alloc := arena.NewBump[node](1, 0)
	p := pool.New[node](1, alloc)
	rec := debra.New[node](1, p)
	mgr := core.NewRecordManager[node](alloc, p, rec)
	hs := reclaimtest.AcquireSlots(1, mgr.AcquireHandle)
	hs[0].LeaveQstate()
	hs[0].Retire(hs[0].Allocate())
	hs[0].EnterQstate()
	if got := rec.Stats().Retired; got != 1 {
		t.Fatalf("direct retire did not reach the reclaimer (saw %d)", got)
	}
	// FlushRetired is a no-op without batching.
	hs[0].FlushRetired()
}

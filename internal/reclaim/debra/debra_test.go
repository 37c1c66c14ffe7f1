package debra_test

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/blockbag"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/reclaim/debra"
	"repro/internal/reclaimtest"
)

// fast returns options that make epochs advance quickly in unit tests.
func fast() []debra.Option {
	return []debra.Option{debra.WithCheckThresh(1), debra.WithIncrThresh(1)}
}

func factory(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
	return debra.New(n, sink, fast()...)
}

func factoryDefault(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
	return debra.New(n, sink)
}

func TestConformance(t *testing.T)        { reclaimtest.Conformance(t, factory) }
func TestConformanceDefault(t *testing.T) { reclaimtest.Conformance(t, factoryDefault) }
func TestStressFastEpochs(t *testing.T) {
	reclaimtest.Stress(t, factory, reclaimtest.DefaultStressOptions())
}
func TestStressDefaultPacing(t *testing.T) {
	reclaimtest.Stress(t, factoryDefault, reclaimtest.DefaultStressOptions())
}

// retireMany drives tid through ops, retiring fresh records, and returns them.
func retireMany(r *debra.Reclaimer[reclaimtest.Record], tid, n int) []*reclaimtest.Record {
	recs := make([]*reclaimtest.Record, 0, n)
	for i := 0; i < n; i++ {
		r.Handle(tid).LeaveQstate()
		rec := &reclaimtest.Record{ID: int64(i)}
		r.Handle(tid).Retire(rec)
		recs = append(recs, rec)
		r.Handle(tid).EnterQstate()
	}
	return recs
}

// TestSingleThreadReclaims checks that a single thread reclaims its own
// retired records once enough operations (and therefore epochs) pass. Only
// full blocks move to the pool, so we retire several blocks' worth.
func TestSingleThreadReclaims(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New(1, sink, fast()...)
	n := 4 * blockbag.BlockSize
	retireMany(r, 0, n)
	// A few empty operations to advance epochs and rotate bags.
	for i := 0; i < 10; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatalf("no records freed after %d retires (stats=%+v epoch=%d)", n, r.Stats(), r.Epoch())
	}
	s := r.Stats()
	if s.Freed > s.Retired {
		t.Fatalf("freed %d > retired %d", s.Freed, s.Retired)
	}
	// At most 3 partial head blocks (one per limbo bag) may be withheld.
	if s.Limbo > 3*int64(blockbag.BlockSize) {
		t.Fatalf("limbo=%d exceeds the 3 partial-block bound", s.Limbo)
	}
}

// TestRecordNotFreedBeforeTwoEpochs checks the core epoch-safety property:
// a retired record is not handed to the sink until the epoch has advanced at
// least twice past its retirement.
func TestRecordNotFreedBeforeTwoEpochs(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New(2, sink, fast()...)

	// Thread 1 is in the middle of an operation: it announced the current
	// epoch and holds (conceptually) pointers into the structure.
	r.Handle(1).LeaveQstate()

	// Thread 0 retires many records; thread 1 never finishes its operation,
	// so no record may be freed.
	for i := 0; i < 3*blockbag.BlockSize; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if got := sink.Freed(); got != 0 {
		t.Fatalf("%d records freed while thread 1 was still in its operation", got)
	}

	// Thread 1 finishes; after thread 0 performs more operations the epoch
	// advances and reclamation proceeds.
	r.Handle(1).EnterQstate()
	for i := 0; i < 20; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatal("records never freed after thread 1 became quiescent")
	}
}

// TestQuiescentThreadDoesNotBlock demonstrates DEBRA's partial fault
// tolerance: threads that are quiescent (crashed or descheduled BETWEEN
// operations) never delay reclamation.
func TestQuiescentThreadDoesNotBlock(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New(8, sink, fast()...) // threads 1..7 never run at all
	// With fast epochs the retires are spread across the three limbo bags,
	// and only full blocks are ever moved to the sink, so retire enough to
	// fill several blocks per bag.
	retireMany(r, 0, 12*blockbag.BlockSize)
	for i := 0; i < 10; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatal("quiescent threads blocked reclamation (they must not)")
	}
}

// TestStalledOperationBlocksReclamation is the flip side: DEBRA alone is NOT
// fault tolerant, so a thread stalled inside an operation stops everyone
// from freeing memory (this is what DEBRA+ fixes).
func TestStalledOperationBlocksReclamation(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New(2, sink, fast()...)
	r.Handle(1).LeaveQstate() // stalled mid-operation
	retireMany(r, 0, 4*blockbag.BlockSize)
	if got := sink.Freed(); got != 0 {
		t.Fatalf("%d records freed despite a thread stalled mid-operation", got)
	}
	if r.Stats().Limbo == 0 {
		t.Fatal("expected records to accumulate in limbo")
	}
}

// TestEpochAdvancesRequireFullScan checks that the epoch only advances after
// the incremental scan has covered every thread.
func TestEpochAdvancesRequireFullScan(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	const n = 5
	r := debra.New(n, sink, fast()...)
	start := r.Epoch()
	// All threads must participate (or be quiescent); with every thread
	// quiescent except thread 0, thread 0 still needs at least n checks.
	for i := 0; i < n-1; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if r.Epoch() != start {
		t.Fatalf("epoch advanced after only %d operations (scan cannot have covered all %d threads)", n-1, n)
	}
	for i := 0; i < n+2; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if r.Epoch() == start {
		t.Fatal("epoch never advanced even though all other threads are quiescent")
	}
}

// TestIncrThreshDelaysAdvance checks the INCR_THRESH pacing: with the
// default threshold of 100, a lone thread does not advance the epoch on
// every operation.
func TestIncrThreshDelaysAdvance(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New(1, sink, debra.WithCheckThresh(1), debra.WithIncrThresh(100))
	start := r.Epoch()
	for i := 0; i < 50; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if r.Epoch() != start {
		t.Fatal("epoch advanced before INCR_THRESH operations")
	}
	for i := 0; i < 200; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if r.Epoch() == start {
		t.Fatal("epoch never advanced after INCR_THRESH operations")
	}
}

// TestBlockSinkReceivesWholeBlocks verifies the O(1) block transfer path:
// when the sink supports blocks, records arrive in multiples of BlockSize.
func TestBlockSinkReceivesWholeBlocks(t *testing.T) {
	sink := &blockRecordingSink{}
	r := debra.New[reclaimtest.Record](1, sink, fast()...)
	retireMany2(r, 0, 3*blockbag.BlockSize)
	for i := 0; i < 10; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if sink.blocks == 0 {
		t.Fatal("block sink never received a block")
	}
	if sink.singles != 0 {
		t.Fatalf("block sink received %d individual records; expected whole blocks only", sink.singles)
	}
}

func retireMany2(r *debra.Reclaimer[reclaimtest.Record], tid, n int) {
	for i := 0; i < n; i++ {
		r.Handle(tid).LeaveQstate()
		r.Handle(tid).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(tid).EnterQstate()
	}
}

// blockRecordingSink counts whole-block versus individual frees.
type blockRecordingSink struct {
	blocks  int
	singles int
}

func (s *blockRecordingSink) Free(tid int, rec *reclaimtest.Record) { s.singles++ }

func (s *blockRecordingSink) FreeBlocks(tid int, chain *blockbag.Block[reclaimtest.Record]) {
	for blk := chain; blk != nil; blk = blk.Next() {
		s.blocks++
	}
}

// TestSharesThePoolsBlocks: records cycling allocate -> retire -> limbo ->
// pool -> allocate carry their blocks one way, from the limbo bags to the
// pool's bag. The limbo bags must draw from the block pool those blocks are
// emptied into, or every BlockSize retired records cost a fresh block.
func TestSharesThePoolsBlocks(t *testing.T) {
	pl := pool.New[reclaimtest.Record](1, arena.NewBump[reclaimtest.Record](1, 0))
	r := debra.New[reclaimtest.Record](1, pl, fast()...)
	cycle := func() {
		for i := 0; i < 4*blockbag.BlockSize; i++ {
			r.Handle(0).LeaveQstate()
			r.Handle(0).Retire(pl.Allocate(0))
			r.Handle(0).EnterQstate()
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // fill the limbo bags, the pool bag and the block pool
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("a steady retire/reuse cycle allocates %.1f times per %d records, want 0", n, 4*blockbag.BlockSize)
	}
}

func TestNewValidation(t *testing.T) {
	if !panics(func() { debra.New[reclaimtest.Record](0, reclaimtest.NewRecordingSink()) }) {
		t.Fatal("expected panic for n=0")
	}
	if !panics(func() { debra.New[reclaimtest.Record](1, nil) }) {
		t.Fatal("expected panic for nil sink")
	}
	//lint:allow retirepin deliberate contract violation: asserts the Retire(nil) panic fires before any pin check matters
	if !panics(func() { debra.New[reclaimtest.Record](1, reclaimtest.NewRecordingSink()).Handle(0).Retire(nil) }) {
		t.Fatal("expected panic for Retire(nil)")
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// --- sharded domains ---------------------------------------------------------

// TestShardedCrossShardSafety: with shard-local incremental scans, a record
// retired in shard 0 must still not be freed while a thread of shard 1 is
// mid-operation.
func TestShardedCrossShardSafety(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New[reclaimtest.Record](4, sink,
		append(fast(), debra.WithShards(core.ShardSpec{Shards: 2}))...)
	r.Handle(3).LeaveQstate() // other-shard thread mid-operation, not quiescent
	// Retire several blocks' worth: the retires may straddle one epoch
	// rotation, but at least one limbo bag then holds a full block (partial
	// head blocks stay behind by design, so assertions below are on freed
	// counts, not individual records).
	for i := 0; i < 4*blockbag.BlockSize; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	for i := 0; i < 400; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if got := sink.Freed(); got != 0 {
		t.Fatalf("%d records freed while a thread of another shard was mid-operation", got)
	}
	r.Handle(3).EnterQstate()
	for i := 0; i < 400; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).EnterQstate()
	}
	if got := sink.Freed(); got < int64(blockbag.BlockSize) {
		t.Fatalf("only %d records freed after the other shard became quiescent", got)
	}
}

// TestShardedQuiescentShardDoesNotBlock: a shard whose members are all
// quiescent passes through the summary-phase slow path.
func TestShardedQuiescentShardDoesNotBlock(t *testing.T) {
	sink := reclaimtest.NewRecordingSink()
	r := debra.New[reclaimtest.Record](6, sink,
		append(fast(), debra.WithShards(core.ShardSpec{Shards: 3}))...)
	for i := 0; i < 2000; i++ {
		r.Handle(0).LeaveQstate()
		r.Handle(0).Retire(&reclaimtest.Record{ID: int64(i)})
		r.Handle(0).EnterQstate()
	}
	if sink.Freed() == 0 {
		t.Fatal("quiescent shards blocked reclamation")
	}
}

// TestShardedStress runs the generic reclaimer stress over both placements.
func TestShardedStress(t *testing.T) {
	for _, placement := range []core.ShardPlacement{core.PlaceBlock, core.PlaceStripe} {
		t.Run(string(placement), func(t *testing.T) {
			reclaimtest.Stress(t, func(n int, sink core.FreeSink[reclaimtest.Record]) core.Reclaimer[reclaimtest.Record] {
				return debra.New[reclaimtest.Record](n, sink,
					append(fast(), debra.WithShards(core.ShardSpec{Shards: 2, Placement: placement}))...)
			}, reclaimtest.DefaultStressOptions())
		})
	}
}

// TestRetireBlockSplice checks the O(1) batched-retire path: the spliced
// block's records rotate through the limbo bags and reach the sink whole.
func TestRetireBlockSplice(t *testing.T) {
	sink := &blockRecordingSink{}
	r := debra.New[reclaimtest.Record](1, sink, fast()...)
	bag := blockbag.New[reclaimtest.Record](nil)
	for i := 0; i < blockbag.BlockSize; i++ {
		bag.Add(&reclaimtest.Record{ID: int64(i)})
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
	if sink.blocks == 0 {
		t.Fatal("spliced block never reached the sink as a whole block")
	}
	if sink.singles != 0 {
		t.Fatalf("%d records arrived individually", sink.singles)
	}
}

package main

import (
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/kvwire"
)

// opKind is the generator's operation vocabulary. Each structure maps it to
// its own calls: read = Get/GET, put = Insert (bst) or Upsert/PUT, del =
// Delete/DEL.
type opKind uint8

const (
	opRead opKind = iota
	opPut
	opDel
)

// Structures a workload can drive.
const (
	structBST     = "bst"
	structMap     = "map"
	structService = "service"
)

// spec is one workload: what is built, who drives it and with which mix.
// Every field is a constant of the benchmark; nothing here is tuned per run.
type spec struct {
	name      string
	why       string
	structure string
	workers   int     // closed-loop clients: goroutines (in-process) or connections (service)
	depth     int     // requests in flight per connection; 1 in-process
	keys      int64   // key range [0, keys); worker w owns the keys k ≡ w (mod workers)
	prefill   int     // percent of the key range present before the warm-up
	readPct   int     // share of reads; the rest splits into putPct and deletes
	putPct    int     //
	zipf      float64 // zipf exponent over key popularity; 0 = uniform
	segOps    int     // operations per worker per second of -seconds, sized on the 2-core box; a segment is 1/segmentsPerSecond of it
	warmOps   int     // operations per worker of warm-up, part of set-up
	traceMask int64   // one operation (in-process) or window (service) in traceMask+1 gets spans
}

// workloads is the benchmark's fixed suite. The whys are the lines
// BENCHMARK.json carries; README.md has the long form.
var workloads = []*spec{
	{
		name:      "bst_update_heavy",
		why:       "paper Exp 1/2 shape: every op allocates and retires, so core+reclaim do the work and the service layers none",
		structure: structBST, workers: 2, depth: 1,
		keys: 10_000, prefill: 50, readPct: 0, putPct: 50,
		segOps: 1_000_000, warmOps: 250_000, traceMask: 1023,
	},
	{
		name:      "map_read_mostly",
		why:       "90% Get over 2^20 keys: traversal and pin/unpin dominate, reclamation nearly idle; a retire gain that costs the pin path shows as a loss",
		structure: structMap, workers: 2, depth: 1,
		keys: 1 << 20, prefill: 50, readPct: 90, putPct: 5,
		segOps: 1_250_000, warmOps: 400_000, traceMask: 1023,
	},
	{
		name:      "svc_pipelined_churn",
		why:       "loopback TCP, 2 conns x 32 in flight, 50% updates: per-window costs amortise 32x, so hashmap+core+reclaim dominate server time",
		structure: structService, workers: 2, depth: 32,
		keys: 1 << 16, prefill: 50, readPct: 50, putPct: 25,
		segOps: 800_000, warmOps: 200_000, traceMask: 63,
	},
	{
		name:      "svc_lockstep_read",
		why:       "loopback TCP, 1 conn, depth 1, 90% GET zipf: per-request kvwire+kvservice cost dominates and reclamation is idle",
		structure: structService, workers: 1, depth: 1,
		keys: 1 << 16, prefill: 100, readPct: 90, putPct: 5, zipf: 1.1,
		segOps: 100_000, warmOps: 25_000, traceMask: 63,
	},
}

func findWorkload(name string) *spec {
	for _, s := range workloads {
		if s.name == name {
			return s
		}
	}
	return nil
}

// Sub-streams of one (workload, seed, worker) generator, so the prefill
// choice and the operation stream never share random numbers.
const (
	streamOps     = 0
	streamPrefill = 1
)

func newRand(s *spec, seed uint64, worker, stream int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(s.name))
	return rand.New(rand.NewPCG(seed, h.Sum64()^uint64(worker)<<8^uint64(stream)))
}

// gen produces one worker's operation stream: a pure function of (workload,
// seed, worker). It also owns the worker's model — the expected value of
// every key the worker owns — so each operation's expected result is known
// when the operation is generated.
type gen struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	owned     uint64 // keys this worker owns
	stride    int64
	offset    int64
	readBelow uint64
	putBelow  uint64
	replaces  bool     // put overwrites a present key (Upsert/PUT) instead of failing (bst Insert)
	seq       uint32   // last value sequence number issued; 0 is reserved for "absent"
	model     []uint32 // model[u] = sequence number stored under owned key u, 0 if absent
}

// zipfScatter is an odd multiplier: rank -> rank*zipfScatter mod owned is a
// bijection when owned is a power of two, so hot ranks are not neighbouring
// keys.
const zipfScatter = 40503

func newGen(s *spec, seed uint64, worker int) *gen {
	g := &gen{
		rng:       newRand(s, seed, worker, streamOps),
		owned:     uint64(s.keys) / uint64(s.workers),
		stride:    int64(s.workers),
		offset:    int64(worker),
		readBelow: uint64(s.readPct),
		putBelow:  uint64(s.readPct + s.putPct),
		replaces:  s.structure != structBST,
	}
	g.model = make([]uint32, g.owned)
	if s.zipf > 0 {
		g.zipf = rand.NewZipf(g.rng, s.zipf, 1, g.owned-1)
	}
	return g
}

// op is one generated operation with its expected outcome.
type op struct {
	kind opKind
	key  int64
	seq  uint32 // put: the sequence number to store
	want uint32 // sequence number the model holds before the op; 0 = absent
}

// next generates the worker's next operation and applies it to the model.
func (g *gen) next() op {
	x := g.rng.Uint64()
	kind := opDel
	switch p := (x & 0xffffffff) * 100 >> 32; {
	case p < g.readBelow:
		kind = opRead
	case p < g.putBelow:
		kind = opPut
	}
	return g.apply(kind, g.draw(x>>32))
}

// nextOf generates an operation of the given kind on the stream's next key:
// the layer probes time homogeneous batches on the workload's key
// distribution.
func (g *gen) nextOf(kind opKind) op {
	return g.apply(kind, g.draw(g.rng.Uint64()>>32))
}

// draw picks an owned key index from 32 random bits (uniform) or from the
// zipf sampler.
func (g *gen) draw(x uint64) uint64 {
	if g.zipf != nil {
		return g.zipf.Uint64() * zipfScatter % g.owned
	}
	return x * g.owned >> 32
}

func (g *gen) apply(kind opKind, u uint64) op {
	o := op{kind: kind, key: int64(u)*g.stride + g.offset, want: g.model[u]}
	switch kind {
	case opPut:
		g.seq++
		o.seq = g.seq
		if g.replaces || o.want == 0 {
			g.model[u] = o.seq
		}
	case opDel:
		g.model[u] = 0
	}
	return o
}

// prefillOps returns the puts that bring the worker's keys to the workload's
// prefill share, in random order (an ordered insert would degenerate the
// unbalanced bst), and applies them to the model.
func (g *gen) prefillOps(s *spec, seed uint64, worker int) []op {
	r := newRand(s, seed, worker, streamPrefill)
	ops := make([]op, 0, g.owned*uint64(s.prefill)/100+1)
	for u := uint64(0); u < g.owned; u++ {
		if r.Uint64N(100) < uint64(s.prefill) {
			ops = append(ops, op{kind: opPut, key: int64(u)*g.stride + g.offset})
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		g.seq++
		ops[i].seq = g.seq
		g.model[uint64(ops[i].key-g.offset)/uint64(g.stride)] = g.seq
	}
	return ops
}

// valueLen is the size of every stored service value.
const valueLen = 16

// appendValue encodes the 16-byte value stored under (key, seq): both are in
// the bytes, so a response carrying another key's or an older value fails
// the comparison.
func appendValue(dst []byte, key int64, seq uint32) []byte {
	return append(dst,
		byte(key>>56), byte(key>>48), byte(key>>40), byte(key>>32), byte(key>>24), byte(key>>16), byte(key>>8), byte(key),
		0, 0, 0, 0, byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq))
}

// appendRequest encodes o as a kvwire request frame; val is scratch for the
// PUT value.
func appendRequest(dst []byte, o op, val *[valueLen]byte) []byte {
	switch o.kind {
	case opRead:
		return kvwire.AppendGet(dst, o.key)
	case opPut:
		return kvwire.AppendPut(dst, o.key, appendValue(val[:0], o.key, o.seq))
	default:
		return kvwire.AppendDel(dst, o.key)
	}
}

// Package kvservice implements the TCP key-value server behind cmd/kvserver:
// a network front-end over N partitioned internal/ds/hashmap namespaces, each
// partition with its own Record Manager, speaking the internal/kvwire
// protocol (GET/PUT/DEL/STATS; docs/PROTOCOL.md).
//
// The request path is batch-oriented: every complete frame already buffered
// on a connection (up to Config.PipelineDepth) is decoded into one batch,
// executed in request order under a single slot acquisition, and answered
// with a single flushed write — so a pipelining client amortises the
// per-request syscall and framing cost, and the steady-state GET/PUT path
// performs no per-request heap allocation (see alloc_test.go for the
// enforced bounds). The connection's buffers are reused, and so are stored
// values' bytes: a value lives in an array owned by its map node, a PUT
// writes into the array the recycled node last held (hashmap UpsertFunc), so
// the bytes are reused when the scheme frees the node, and a GET copies the
// value out while the node is still protected (hashmap View). No response
// body refers to stored bytes.
//
// The server is the library's deployment story made concrete (the paper
// pitches epoch-based reclamation exactly at long-running services, where
// reclamation stalls surface as tail latency). Every connection goroutine
// lives the PR 5 churn contract: it binds a worker slot in every partition
// for a bounded burst of requests (Config.Burst) and releases the slots back
// at the burst boundary — or after Config.IdleHold of inbound silence, so a
// connection that stops sending mid-burst gives its slots back too. A server
// can therefore admit far more connections over its lifetime than it has
// worker slots: an idle or slow connection holds nothing and cannot stall
// reclamation (or starve the slot-waiting connections) for the others.
//
// The server degrades gracefully under faults and overload: every read and
// write carries a deadline (Config.ReadTimeout/WriteTimeout), slot
// acquisition is bounded (Config.AcquireWait, Config.AcquireQueue) with an
// ERR_BUSY fast-fail instead of an unbounded wait, and a background reaper
// closes peers that complete no frame within Config.ReapAfter — so a dead,
// stalled or malicious peer can never park a handler goroutine or the
// worker slots it would bind. See docs/ARCHITECTURE.md for where this sits
// in the Record Manager stack and docs/OPERATIONS.md ("Fault tolerance")
// for operating guidance.
package kvservice

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds/hashmap"
	"repro/internal/kvwire"
	"repro/internal/recordmgr"
)

// Config describes the server to build. The zero value is not usable; see
// the field defaults applied by New.
type Config struct {
	// Scheme is the reclamation scheme every partition uses (recordmgr
	// scheme names; defaults to "debra"). New refuses debra+, which the
	// hash map does not take (hashmap.New).
	Scheme string
	// Partitions is the number of independent map namespaces, each with its
	// own Record Manager (defaults to 1). Keys route by hash.
	Partitions int
	// MaxConns is each partition's worker-slot capacity: the number of
	// connections that can hold a burst concurrently. Admitted connections
	// beyond it wait for a vacant slot at their next burst, so it bounds
	// reclamation's visible thread count, not the accept rate. Defaults to 8.
	MaxConns int
	// Burst is how many requests a connection serves per slot hold before
	// releasing its handles back to the registries (defaults to 64). A
	// pipelined batch is never split across the boundary, so a hold may
	// overshoot by at most PipelineDepth-1 requests.
	Burst int
	// PipelineDepth caps how many complete request frames already buffered
	// on a connection the server decodes and executes as one batch: one slot
	// acquisition, one handle resolution per partition and one response
	// write for the whole batch (docs/PROTOCOL.md, "Pipelining"). Clients
	// that do not pipeline always see batches of one; the cap only bounds
	// how much a pipelining client can amortise per syscall. Defaults to 32.
	PipelineDepth int
	// IdleHold bounds how long a connection may stall (no inbound byte)
	// while holding worker slots mid-burst — idle between frames or stuck in
	// the middle of one, either way the handles are released past it and
	// reacquired when the frame completes (defaults to 5ms). The bound is a
	// liveness requirement, not a tuning knob: slots are a multiplexed
	// resource, and a connection that parks with its handles bound would
	// starve every connection waiting in acquire — forever, since nothing
	// else frees a slot. It bounds only slot tenure: the connection itself,
	// and any frame in flight, live under ReadTimeout.
	IdleHold time.Duration
	// UsePool must be set: the hash map links its records by index, so it
	// recycles them through the record pool, and New refuses a config
	// without it.
	UsePool bool
	// InitialBuckets sizes each partition's bucket table (0 = map default).
	InitialBuckets int

	// ReadTimeout bounds how long a connection may take to deliver one
	// complete request frame, absolute from the frame's first byte, and also
	// how long an unbound connection may sit silent between frames. A peer
	// that stalls mid-frame — or trickles bytes — is dropped once it
	// expires, so a dead peer can never park a handler goroutine forever
	// (its worker slots were already released after IdleHold); a slow but
	// live peer inside the budget is served. Defaults to 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write, so a peer that stops reading
	// cannot wedge a handler behind a full TCP window. Defaults to 10s.
	WriteTimeout time.Duration
	// AcquireWait bounds how long a request may wait for a worker slot
	// before the server fast-fails it with ERR_BUSY (kvwire.StatusBusy).
	// The connection stays open — framing is intact — and the client is
	// expected to back off and retry. Defaults to 100ms.
	AcquireWait time.Duration
	// AcquireQueue bounds how many connections may wait for slots at once:
	// past it a request is shed with ERR_BUSY immediately, without waiting,
	// so overload degrades to fast rejections instead of an unbounded
	// convoy of spinning handlers. Defaults to 4*MaxConns.
	AcquireQueue int
	// ReapAfter is the slow-peer reaper's threshold: a connection that
	// completes no request frame for this long is closed by a background
	// watchdog, independently of the per-read deadlines above (defense in
	// depth: it bounds handler lifetime even under a ReadTimeout tuned for
	// patient clients). Defaults to 2*ReadTimeout.
	ReapAfter time.Duration
}

// withDefaults returns cfg with unset fields defaulted.
func (cfg Config) withDefaults() Config {
	if cfg.Scheme == "" {
		cfg.Scheme = recordmgr.SchemeDEBRA
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 1
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 8
	}
	if cfg.Burst == 0 {
		cfg.Burst = 64
	}
	if cfg.PipelineDepth == 0 {
		cfg.PipelineDepth = 32
	}
	if cfg.IdleHold == 0 {
		cfg.IdleHold = 5 * time.Millisecond
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.AcquireWait == 0 {
		cfg.AcquireWait = 100 * time.Millisecond
	}
	if cfg.AcquireQueue == 0 {
		cfg.AcquireQueue = 4 * cfg.MaxConns
	}
	if cfg.ReapAfter == 0 {
		cfg.ReapAfter = 2 * cfg.ReadTimeout
	}
	return cfg
}

// tally is one connection's operation counters, merged into the server's
// totals at burst boundaries and connection end (the single-writer counter
// discipline: no shared atomics on the request path).
type tally struct {
	gets, getHits     int64
	puts, putReplaced int64
	dels, delHits     int64
	statsReqs         int64
	busy, shed        int64
	batches           int64
	writeErrs         int64
}

func (t *tally) add(o tally) {
	t.gets += o.gets
	t.getHits += o.getHits
	t.puts += o.puts
	t.putReplaced += o.putReplaced
	t.dels += o.dels
	t.delHits += o.delHits
	t.statsReqs += o.statsReqs
	t.busy += o.busy
	t.shed += o.shed
	t.batches += o.batches
	t.writeErrs += o.writeErrs
}

// Server is a running KV service. Construct with New, start with Serve or
// Start, stop with Close.
type Server struct {
	cfg Config
	pm  *hashmap.Partitioned[[]byte]

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]*connInfo
	totals  tally
	waiters int
	reaped  int64
	closed  bool

	stopReap chan struct{}
	handlers sync.WaitGroup
	acceptWG sync.WaitGroup
}

// connInfo is the server's per-connection watchdog state.
type connInfo struct {
	// lastFrame is the UnixNano timestamp of the connection's last completed
	// request frame (its admit time before the first), read by the reaper.
	lastFrame atomic.Int64
}

// New builds a server: Partitions independent maps, each on its own Record
// Manager configured per cfg.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("kvservice: Partitions must be >= 1, got %d", cfg.Partitions)
	}
	if cfg.MaxConns < 1 {
		return nil, fmt.Errorf("kvservice: MaxConns must be >= 1, got %d", cfg.MaxConns)
	}
	if cfg.Burst < 1 {
		return nil, fmt.Errorf("kvservice: Burst must be >= 1, got %d", cfg.Burst)
	}
	if cfg.PipelineDepth < 1 {
		return nil, fmt.Errorf("kvservice: PipelineDepth must be >= 1, got %d", cfg.PipelineDepth)
	}
	if cfg.IdleHold < 0 {
		return nil, fmt.Errorf("kvservice: IdleHold must be >= 0, got %v", cfg.IdleHold)
	}
	if cfg.ReadTimeout <= 0 || cfg.WriteTimeout <= 0 || cfg.AcquireWait <= 0 || cfg.ReapAfter <= 0 {
		return nil, fmt.Errorf("kvservice: ReadTimeout/WriteTimeout/AcquireWait/ReapAfter must be > 0")
	}
	if cfg.AcquireQueue < 1 {
		return nil, fmt.Errorf("kvservice: AcquireQueue must be >= 1, got %d", cfg.AcquireQueue)
	}
	if cfg.Scheme == recordmgr.SchemeDEBRAPlus {
		return nil, fmt.Errorf("kvservice: scheme %s is refused: the hash map has no neutralization recovery", cfg.Scheme)
	}
	if !cfg.UsePool {
		return nil, errors.New("kvservice: UsePool must be set: the hash map recycles its records through the pool (hashmap.New)")
	}
	// Build every partition's manager up front so configuration errors
	// surface as errors rather than panics out of the builder callback.
	mcfg := recordmgr.Config{
		Scheme:    cfg.Scheme,
		Threads:   cfg.MaxConns,
		Allocator: recordmgr.AllocBump,
		UsePool:   cfg.UsePool,
	}
	mgrs := make([]*hashmap.Manager[[]byte], cfg.Partitions)
	for p := range mgrs {
		m, err := recordmgr.Build[hashmap.Node[[]byte]](mcfg)
		if err != nil {
			return nil, fmt.Errorf("kvservice: %w", err)
		}
		mgrs[p] = m
	}
	var opts []hashmap.Option
	if cfg.InitialBuckets > 0 {
		opts = append(opts, hashmap.WithInitialBuckets(cfg.InitialBuckets))
	}
	pm := hashmap.NewPartitioned(cfg.Partitions, func(p int) *hashmap.Manager[[]byte] {
		return mgrs[p]
	}, cfg.MaxConns, opts...)
	return &Server{
		cfg:      cfg,
		pm:       pm,
		conns:    make(map[net.Conn]*connInfo),
		stopReap: make(chan struct{}),
	}, nil
}

// Config returns the server's effective configuration (defaults applied).
func (s *Server) Config() Config { return s.cfg }

// Start listens on addr ("host:port"; ":0" picks a free port) and serves
// connections on background goroutines until Close. It returns the bound
// address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kvservice: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("kvservice: server is closed")
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("kvservice: server already started")
	}
	s.ln = ln
	s.mu.Unlock()
	s.acceptWG.Add(2)
	go s.acceptLoop(ln)
	go s.reapLoop()
	return ln.Addr(), nil
}

// acceptLoop admits connections until the listener is closed.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.acceptWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // Close closed the listener
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		info := &connInfo{}
		info.lastFrame.Store(time.Now().UnixNano())
		s.conns[conn] = info
		s.handlers.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn, info)
	}
}

// reapLoop is the slow-peer watchdog: it periodically closes connections
// that have not completed a request frame within ReapAfter. Closing the
// socket fails the handler's blocked read, which unwinds it through the
// normal exit path (slots released, counters merged) — a reaped peer can
// therefore never hold a handler goroutine or its worker slots forever.
func (s *Server) reapLoop() {
	defer s.acceptWG.Done()
	interval := s.cfg.ReapAfter / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopReap:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-s.cfg.ReapAfter).UnixNano()
		var doomed []net.Conn
		s.mu.Lock()
		for conn, info := range s.conns {
			if info.lastFrame.Load() < cutoff {
				doomed = append(doomed, conn)
			}
		}
		s.reaped += int64(len(doomed))
		s.mu.Unlock()
		for _, conn := range doomed {
			conn.Close()
		}
	}
}

// Close stops accepting, closes every open connection, waits for the
// handlers to unwind (releasing their slots), and shuts every partition's
// reclamation pipeline down. After Close, Stats().Manager satisfies
// Retired == Freed for every reclaiming scheme — the repo-wide shutdown
// invariant, now holding for a network service. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.acceptWG.Wait()
		s.handlers.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	close(s.stopReap)
	if ln != nil {
		ln.Close()
	}
	s.acceptWG.Wait()
	s.handlers.Wait()
	s.pm.Close()
}

// connState is one connection's reusable I/O state: the inbound
// accumulation buffer the batch decoder drains, the decoded request batch,
// its response bodies, and the staged response bytes. Everything here is
// recycled across batches, which is what makes the steady-state GET/PUT path
// allocation-free (enforced by the AllocsPerRun tests in alloc_test.go).
type connState struct {
	in   []byte // inbound byte accumulator; [r,w) holds unconsumed bytes
	r, w int

	reqs []kvwire.Request // decoded batch (values alias in)

	vals []byte // the current request's response body, which reqResult indexes
	out  []byte // staged response bytes, flushed once per batch
}

// reqResult is one request's outcome: its status and where its body sits in
// vals.
type reqResult struct {
	status kvwire.Status
	lo, hi int // the response body is vals[lo:hi]
}

// body appends a response body to the batch's vals and returns its result.
func (cs *connState) body(status kvwire.Status, b ...byte) reqResult {
	lo := len(cs.vals)
	cs.vals = append(cs.vals, b...)
	return reqResult{status: status, lo: lo, hi: len(cs.vals)}
}

// minValueClass is the smallest stored-value array. Arrays come in
// power-of-two classes from it, and a PUT reuses a node's array only for a
// value of the array's class, so no node holds more than twice its value.
const minValueClass = 16

// store returns v copied into old — the array of the recycled node a PUT
// publishes — when old is of v's class, else into a fresh array of that
// class.
func store(old, v []byte) []byte {
	class := minValueClass
	if len(v) > class {
		class = 1 << bits.Len(uint(len(v)-1))
	}
	if cap(old) != class {
		old = make([]byte, 0, class)
	}
	return append(old[:0], v...)
}

// serveConn runs one connection batch-at-a-time: decode every complete
// request frame already buffered (up to PipelineDepth), execute the batch in
// request order under one slot acquisition, and flush every response with a
// single write. Handles go back to the registries every Burst requests, or
// sooner when the peer goes quiet mid-burst (IdleHold). Every read and write
// carries a deadline (ReadTimeout/WriteTimeout), so a dead or wedged peer
// cannot park this goroutine — or slots it would bind — forever. Clients
// that do not pipeline see batches of one and exactly the PR 6
// request-per-round-trip behaviour.
func (s *Server) serveConn(conn net.Conn, info *connInfo) {
	defer s.handlers.Done()
	h := s.pm.NewHandle()
	cs := &connState{in: make([]byte, 4096)}
	var (
		local      tally
		served     int       // requests under the current slot hold
		frameStart time.Time // first byte of the oldest incomplete frame
	)
	releaseSlots := func() {
		h.Release()
		served = 0
		s.mu.Lock()
		s.totals.add(local)
		s.mu.Unlock()
		local = tally{}
	}
	defer func() {
		if h.Bound() {
			h.Release()
		}
		s.mu.Lock()
		s.totals.add(local)
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		// Drain the accumulator: every complete frame already buffered
		// becomes one batch. The decoded values alias cs.in, which is not
		// touched again until the batch has executed and flushed.
		var consumed int
		var decErr error
		cs.reqs, consumed, decErr = kvwire.DecodeRequests(cs.reqs[:0], cs.in[cs.r:cs.w], s.cfg.PipelineDepth)
		if len(cs.reqs) == 0 && decErr == nil {
			// No complete frame buffered: read more bytes under the two
			// liveness bounds. IdleHold bounds slot tenure alone — while the
			// connection is bound, read attempts run in IdleHold slices, and
			// the first expiry (idle at a frame boundary or stalled mid-frame
			// alike) releases the slots and drops to the patient regime.
			// ReadTimeout bounds the frame, absolute from its first byte, so
			// a peer that goes silent or trickles bytes mid-frame is dropped
			// when it expires; an unbound connection with no frame in flight
			// gets ReadTimeout of patience before it is dropped as dead.
			if err := s.fill(conn, cs, h.Bound(), &frameStart, releaseSlots); err != nil {
				return
			}
			continue
		}
		cs.r += consumed
		if len(cs.reqs) > 0 {
			info.lastFrame.Store(time.Now().UnixNano())
			if !h.Bound() {
				res, shed := s.acquire(h)
				switch res {
				case acquireOK:
				case acquireBusy:
					// Overload fast-fail: no slot within the bound. The
					// framing is intact and the batch was simply not
					// executed, so the connection survives — answer ERR_BUSY
					// for every request in it and read on.
					local.busy += int64(len(cs.reqs))
					if shed {
						local.shed += int64(len(cs.reqs))
					}
					for range cs.reqs {
						cs.out = kvwire.AppendResponse(cs.out, kvwire.StatusBusy, nil)
					}
				case acquireClosing:
					return
				}
			}
			if h.Bound() {
				local.batches++
				s.executeBatch(cs, h, &local)
				served += len(cs.reqs)
			}
			if err := cs.flush(conn, s.cfg.WriteTimeout); err != nil {
				local.writeErrs++
				return
			}
			if served >= s.cfg.Burst && h.Bound() {
				// Burst boundary: give the slots back and surface this
				// connection's counters (the only synchronised stats touch).
				releaseSlots()
			}
		}
		if decErr != nil {
			// Protocol violation mid-stream. The responses for the frames
			// before the bad one were flushed above; the peer is owed the
			// diagnostic as the last frame on the wire before the drop.
			cs.out = kvwire.AppendResponse(cs.out[:0], kvwire.StatusErr, []byte(decErr.Error()))
			if err := cs.flush(conn, s.cfg.WriteTimeout); err != nil {
				local.writeErrs++
			}
			return
		}
		if cs.r == cs.w {
			// Fully drained: rewind the accumulator and clear the
			// frame-in-flight clock.
			cs.r, cs.w = 0, 0
			frameStart = time.Time{}
		} else if len(cs.reqs) > 0 {
			// A partial frame trails the batch we just served; its budget
			// runs from now (its bytes arrived with the batch, so this is
			// within a batch's service time of the true first-byte time).
			frameStart = time.Now()
		}
	}
}

// fill runs one read attempt into cs.in under the deadline regime the
// connection is in (see serveConn). A timeout while bound releases the slots
// via releaseSlots and returns nil so the caller retries under the patient
// regime; any other failure with no bytes delivered is fatal. frameStart is
// maintained as the arrival time of the oldest incomplete frame's first
// byte.
func (s *Server) fill(conn net.Conn, cs *connState, bound bool, frameStart *time.Time, releaseSlots func()) error {
	started := cs.r < cs.w
	switch {
	case !started && bound:
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleHold))
	case !started:
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	case bound:
		// Mid-frame with slots held: the next stall releases them, but
		// never stretch past the frame's absolute budget.
		d := time.Now().Add(s.cfg.IdleHold)
		if abs := frameStart.Add(s.cfg.ReadTimeout); abs.Before(d) {
			d = abs
		}
		conn.SetReadDeadline(d)
	default:
		conn.SetReadDeadline(frameStart.Add(s.cfg.ReadTimeout))
	}
	if cs.w == len(cs.in) {
		if cs.r > 0 {
			// Reclaim the consumed prefix. Nothing aliases it here: fill
			// only runs when no complete frame is buffered, so [r,w) is at
			// most one partial frame and the previous batch's requests are
			// dead.
			cs.w = copy(cs.in, cs.in[cs.r:cs.w])
			cs.r = 0
		} else {
			// One frame outgrew the accumulator (bounded by the kvwire
			// frame cap, prefix + MaxPayload).
			grown := make([]byte, 2*len(cs.in))
			copy(grown, cs.in[:cs.w])
			cs.in = grown
		}
	}
	n, err := conn.Read(cs.in[cs.w:])
	cs.w += n
	if n > 0 {
		if frameStart.IsZero() {
			*frameStart = time.Now()
		}
		// Deliver what arrived; a real error sticks and resurfaces on the
		// next read attempt.
		return nil
	}
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() && bound {
		releaseSlots()
		return nil
	}
	// Clean EOF, peer reset, or a liveness deadline on an unbound
	// connection: the conversation is over.
	return err
}

// executeBatch executes cs.reqs under the bound handle in request order and
// stages every response for one flush.
func (s *Server) executeBatch(cs *connState, h *hashmap.PartitionedHandle[[]byte], local *tally) {
	for i := range cs.reqs {
		cs.vals = cs.vals[:0]
		r := s.execute(h, cs, cs.reqs[i], local)
		cs.emit(&r)
	}
}

// execute runs one request of any opcode: the data plane through executeOne
// on the key's partition, STATS as an inline snapshot that observes the
// operations before it in the same batch, anything else as ERR.
func (s *Server) execute(h *hashmap.PartitionedHandle[[]byte], cs *connState, req kvwire.Request, local *tally) reqResult {
	switch req.Op {
	case kvwire.OpGet, kvwire.OpPut, kvwire.OpDel:
		return cs.executeOne(h.Part(s.pm.PartitionFor(req.Key)), req, local)
	case kvwire.OpStats:
		local.statsReqs++
		body, err := json.Marshal(s.snapshotLocked(local))
		if err != nil {
			return cs.body(kvwire.StatusErr, []byte(err.Error())...)
		}
		return cs.body(kvwire.StatusOK, body...)
	default:
		return cs.body(kvwire.StatusErr, []byte(kvwire.ErrUnknownOp.Error())...)
	}
}

// executeOne runs one data-plane request against its partition's handle.
// PUT copies its value out of the inbound buffer, which is reused, into the
// stored array; GET copies the stored value into vals before its node's
// protection ends, after which the scheme may recycle the array.
func (cs *connState) executeOne(hd *hashmap.Handle[[]byte], req kvwire.Request, local *tally) reqResult {
	var flag byte
	switch req.Op {
	case kvwire.OpGet:
		local.gets++
		lo := len(cs.vals)
		if !hd.View(req.Key, func(v []byte) { cs.vals = append(cs.vals, v...) }) {
			return cs.body(kvwire.StatusNotFound)
		}
		local.getHits++
		return reqResult{status: kvwire.StatusOK, lo: lo, hi: len(cs.vals)}
	case kvwire.OpPut:
		local.puts++
		if hd.UpsertFunc(req.Key, func(old []byte) []byte { return store(old, req.Value) }) {
			local.putReplaced++
			flag = 1
		}
	default: // kvwire.OpDel — the callers admit no other opcode
		local.dels++
		if hd.Delete(req.Key) {
			local.delHits++
			flag = 1
		}
	}
	return cs.body(kvwire.StatusOK, flag)
}

// emit stages one response in the output buffer.
func (cs *connState) emit(r *reqResult) {
	cs.out = kvwire.AppendResponse(cs.out, r.status, cs.vals[r.lo:r.hi])
}

// flush writes every staged response in one call. The whole batch shares one
// WriteTimeout, like the single response it replaces on the wire.
func (cs *connState) flush(conn net.Conn, timeout time.Duration) error {
	if len(cs.out) == 0 {
		return nil
	}
	conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := conn.Write(cs.out)
	cs.out = cs.out[:0]
	return err
}

// acquireResult is acquire's outcome.
type acquireResult int

const (
	// acquireOK: the handle is bound.
	acquireOK acquireResult = iota
	// acquireBusy: no slot within the policy bounds — answer ERR_BUSY.
	acquireBusy
	// acquireClosing: the server is shutting down — drop the connection.
	acquireClosing
)

// acquire binds h with backoff, waiting out transient slot exhaustion
// (connections beyond MaxConns queue here between bursts) — but only within
// the overload policy's bounds: at most AcquireWait of waiting, and at most
// AcquireQueue connections waiting at once (past it the batch is shed
// immediately; shed reports that subset). The caller counts the overload
// outcomes per request — one ERR_BUSY response per request in the rejected
// batch — so the busy/shed counters keep meaning "responses sent".
func (s *Server) acquire(h *hashmap.PartitionedHandle[[]byte]) (res acquireResult, shed bool) {
	if h.TryAcquire() {
		return acquireOK, false
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return acquireClosing, false
	}
	if s.waiters >= s.cfg.AcquireQueue {
		s.mu.Unlock()
		return acquireBusy, true
	}
	s.waiters++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.waiters--
		s.mu.Unlock()
	}()
	deadline := time.Now().Add(s.cfg.AcquireWait)
	for wait := time.Microsecond; ; {
		if h.TryAcquire() {
			return acquireOK, false
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return acquireClosing, false
		}
		if !time.Now().Before(deadline) {
			return acquireBusy, false
		}
		time.Sleep(wait)
		if wait < time.Millisecond {
			wait *= 2
		}
	}
}

// Snapshot is the server's statistics document: the STATS response body and
// the shape Stats returns. Counters are exact for quiesced traffic and
// at-least-as-of-last-burst for connections mid-burst (their local tallies
// merge at burst boundaries).
type Snapshot struct {
	Scheme     string `json:"scheme"`
	Partitions int    `json:"partitions"`
	OpenConns  int    `json:"open_conns"`
	// SlotCapacity is each partition's worker-slot capacity (MaxConns);
	// SlotsLive is the currently bound slot count summed over partitions.
	SlotCapacity int `json:"slot_capacity"`
	SlotsLive    int `json:"slots_live"`
	// Keys is the summed element count over partitions.
	Keys int `json:"keys"`

	Gets        int64 `json:"gets"`
	GetHits     int64 `json:"get_hits"`
	Puts        int64 `json:"puts"`
	PutReplaced int64 `json:"put_replaced"`
	Dels        int64 `json:"dels"`
	DelHits     int64 `json:"del_hits"`
	StatsReqs   int64 `json:"stats_reqs"`

	// Busy counts ERR_BUSY fast-fail responses (no worker slot within the
	// overload policy's bounds); Shed is the subset rejected immediately
	// because the acquire queue was already at AcquireQueue waiters.
	// ReapedConns counts connections the slow-peer watchdog closed.
	Busy        int64 `json:"busy"`
	Shed        int64 `json:"shed"`
	ReapedConns int64 `json:"reaped_conns"`

	// Batches counts executed request batches (one slot hold, one response
	// flush each): (gets+puts+dels+stats_reqs)/batches is the mean pipelined
	// batch size. WriteErrors counts response writes that failed, each of
	// which dropped its connection.
	Batches     int64 `json:"batches"`
	WriteErrors int64 `json:"write_errors"`

	Manager ManagerSnapshot `json:"manager"`
}

// ManagerSnapshot is the reclamation half of a Snapshot, summed over the
// partitions' Record Managers.
type ManagerSnapshot struct {
	Retired        int64 `json:"retired"`
	Freed          int64 `json:"freed"`
	Limbo          int64 `json:"limbo"`
	Unreclaimed    int64 `json:"unreclaimed"`
	EpochAdvances  int64 `json:"epoch_advances"`
	Scans          int64 `json:"scans"`
	Allocated      int64 `json:"allocated"`
	AllocatedBytes int64 `json:"allocated_bytes"`
	PoolReused     int64 `json:"pool_reused"`
}

// Stats returns the server's statistics document (same content as a STATS
// response). Safe to call while serving and after Close.
func (s *Server) Stats() Snapshot {
	return s.snapshotLocked(nil)
}

// snapshotLocked builds a Snapshot, folding in the calling connection's
// unmerged tally when inline is non-nil (so a connection's own STATS request
// sees its own preceding operations).
func (s *Server) snapshotLocked(inline *tally) Snapshot {
	s.mu.Lock()
	t := s.totals
	open := len(s.conns)
	reaped := s.reaped
	s.mu.Unlock()
	if inline != nil {
		t.add(*inline)
	}
	live := 0
	for p := 0; p < s.pm.Partitions(); p++ {
		live += s.pm.Partition(p).Manager().SlotRegistry().Live()
	}
	ms := s.pm.ManagerStats()
	return Snapshot{
		Scheme:       s.cfg.Scheme,
		Partitions:   s.cfg.Partitions,
		OpenConns:    open,
		SlotCapacity: s.cfg.MaxConns,
		SlotsLive:    live,
		Keys:         s.pm.Count(),
		Gets:         t.gets,
		GetHits:      t.getHits,
		Puts:         t.puts,
		PutReplaced:  t.putReplaced,
		Dels:         t.dels,
		DelHits:      t.delHits,
		StatsReqs:    t.statsReqs,
		Busy:         t.busy,
		Shed:         t.shed,
		ReapedConns:  reaped,
		Batches:      t.batches,
		WriteErrors:  t.writeErrs,
		Manager: ManagerSnapshot{
			Retired:        ms.Reclaimer.Retired,
			Freed:          ms.Reclaimer.Freed,
			Limbo:          ms.Reclaimer.Limbo,
			Unreclaimed:    ms.Unreclaimed,
			EpochAdvances:  ms.Reclaimer.EpochAdvances,
			Scans:          ms.Reclaimer.Scans,
			Allocated:      ms.Alloc.Allocated,
			AllocatedBytes: ms.Alloc.AllocatedBytes,
			PoolReused:     ms.Pool.Reused,
		},
	}
}

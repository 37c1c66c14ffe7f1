// Package kvload is the load generator behind cmd/kvload: it drives a
// kvservice server (cmd/kvserver) over the kvwire protocol with a
// configurable connection count, read/write mix and key distribution, and
// reports throughput plus latency quantiles — the p99/p999 tail numbers that
// throughput panels hide and that reclamation stalls actually move.
//
// Two loop disciplines are supported. The closed loop sends each request the
// moment the previous response arrives: it measures the server's capacity,
// but its latency numbers suffer coordinated omission (a server stall delays
// the requests that would have observed it). The open loop schedules
// requests at a fixed rate and measures each latency from the request's
// *intended* send time, so a stall is charged to every request it delays —
// the honest tail. See docs/OPERATIONS.md for guidance on reading the two.
package kvload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/kvwire"
)

// Key distributions.
const (
	// DistZipf draws keys from a zipfian distribution (skew Config.ZipfS):
	// a small hot set absorbs most operations, the realistic cache shape.
	DistZipf = "zipf"
	// DistUniform draws keys uniformly: maximal working set, minimal
	// contention per key.
	DistUniform = "uniform"
)

// Config describes a load run.
type Config struct {
	// Addr is the server's "host:port".
	Addr string
	// Conns is the number of concurrent connections (default 4).
	Conns int
	// Duration is the measured run length (default 1s).
	Duration time.Duration
	// Keys is the key-space size; keys are drawn from [0, Keys) (default
	// 1<<20).
	Keys int64
	// Dist is the key distribution, DistZipf or DistUniform (default zipf).
	Dist string
	// ZipfS is the zipfian skew exponent, > 1 (default 1.1; larger = hotter
	// hot set).
	ZipfS float64
	// ReadPct is the percentage of operations that are GETs (default 80).
	ReadPct int
	// DelPct is the percentage of operations that are DELs (default half the
	// non-read share, rounded down). PUTs make up the remainder, so churn —
	// every DEL retires a node, every PUT of an absent key allocates one —
	// is ReadPct/DelPct-tunable.
	DelPct int
	// ValueLen is the PUT value size in bytes (default 16).
	ValueLen int
	// Pipeline is the number of requests each connection keeps in flight
	// (default 1: strict request/response lockstep). Depths > 1 encode the
	// whole window into one buffer, send it with a single write, and match
	// the responses back in order — the kvwire protocol answers strictly one
	// response per request, in request order (docs/PROTOCOL.md,
	// "Pipelining") — so the generator can saturate a batch-executing server
	// instead of paying one network round trip per request. Each response's
	// latency is measured from the window's send time (closed loop) or
	// intended send time (open loop), so in-window queueing is charged to
	// the requests that experience it.
	Pipeline int
	// OpenLoop selects the open-loop discipline; Rate must be set.
	OpenLoop bool
	// Rate is the open loop's total target request rate per second across
	// all connections.
	Rate float64
	// Seed seeds the per-connection RNGs (default 1; connection c uses
	// Seed+c, so runs are reproducible).
	Seed int64
	// Prefill, when > 0, PUTs keys [0, Prefill) before the measured run so
	// GETs hit and DELs delete (issued round-robin over the connections,
	// not measured).
	Prefill int64

	// Retries bounds the consecutive transient failures (ERR_BUSY, dial or
	// IO errors) one operation may absorb — with exponential backoff and
	// jitter between attempts — before its connection gives up. A given-up
	// connection stops contributing but does not abort the run (see
	// Result.GaveUp). Default 8; negative disables retrying entirely.
	Retries int
	// RetryBackoff is the first retry's backoff; it doubles per consecutive
	// failure (±50% jitter, capped at 100x). Default 1ms.
	RetryBackoff time.Duration
	// ChaosStallEvery, when > 0, makes each connection stall mid-frame —
	// write half a request, sleep ChaosStallFor, write the rest — with
	// probability 1/ChaosStallEvery per operation, exercising the server's
	// slow-peer handling. The stall may cost the connection (the server is
	// entitled to drop a mid-frame staller); the retry path reconnects.
	ChaosStallEvery int
	// ChaosStallFor is the mid-frame stall length (default 5ms).
	ChaosStallFor time.Duration
	// ChaosKillEvery, when > 0, makes each connection close its own socket
	// with probability 1/ChaosKillEvery per operation — a mid-burst crash
	// the retry path recovers from by reconnecting.
	ChaosKillEvery int
}

// withDefaults returns cfg with unset fields defaulted.
func (cfg Config) withDefaults() Config {
	if cfg.Conns == 0 {
		cfg.Conns = 4
	}
	if cfg.Duration == 0 {
		cfg.Duration = time.Second
	}
	if cfg.Keys == 0 {
		cfg.Keys = 1 << 20
	}
	if cfg.Dist == "" {
		cfg.Dist = DistZipf
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.1
	}
	if cfg.ReadPct == 0 && cfg.DelPct == 0 {
		cfg.ReadPct = 80
	}
	if cfg.DelPct == 0 {
		cfg.DelPct = (100 - cfg.ReadPct) / 2
	}
	if cfg.ValueLen == 0 {
		cfg.ValueLen = 16
	}
	if cfg.Pipeline == 0 {
		cfg.Pipeline = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Retries == 0 {
		cfg.Retries = 8
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	if cfg.ChaosStallFor == 0 {
		cfg.ChaosStallFor = 5 * time.Millisecond
	}
	return cfg
}

func (cfg Config) validate() error {
	if cfg.Addr == "" {
		return errors.New("kvload: Addr is required")
	}
	if cfg.Conns < 1 {
		return fmt.Errorf("kvload: Conns must be >= 1, got %d", cfg.Conns)
	}
	if cfg.Keys < 1 {
		return fmt.Errorf("kvload: Keys must be >= 1, got %d", cfg.Keys)
	}
	if cfg.Dist != DistZipf && cfg.Dist != DistUniform {
		return fmt.Errorf("kvload: unknown distribution %q (want %q or %q)", cfg.Dist, DistZipf, DistUniform)
	}
	if cfg.Dist == DistZipf && cfg.ZipfS <= 1 {
		return fmt.Errorf("kvload: ZipfS must be > 1, got %g", cfg.ZipfS)
	}
	if cfg.ReadPct < 0 || cfg.DelPct < 0 || cfg.ReadPct+cfg.DelPct > 100 {
		return fmt.Errorf("kvload: ReadPct (%d) + DelPct (%d) must fit in [0, 100]", cfg.ReadPct, cfg.DelPct)
	}
	if cfg.ValueLen < 0 || cfg.ValueLen > kvwire.MaxValueLen {
		return fmt.Errorf("kvload: ValueLen must be in [0, %d], got %d", kvwire.MaxValueLen, cfg.ValueLen)
	}
	if cfg.Pipeline < 1 {
		return fmt.Errorf("kvload: Pipeline must be >= 1, got %d", cfg.Pipeline)
	}
	if cfg.OpenLoop && cfg.Rate <= 0 {
		return fmt.Errorf("kvload: open loop requires Rate > 0, got %g", cfg.Rate)
	}
	if cfg.ChaosStallEvery < 0 || cfg.ChaosKillEvery < 0 {
		return fmt.Errorf("kvload: ChaosStallEvery/ChaosKillEvery must be >= 0")
	}
	if cfg.RetryBackoff < 0 || cfg.ChaosStallFor < 0 {
		return fmt.Errorf("kvload: RetryBackoff/ChaosStallFor must be >= 0")
	}
	return nil
}

// Result is a completed run's measurements.
type Result struct {
	// Ops counts completed requests (Gets + Puts + Dels).
	Ops, Gets, Puts, Dels int64
	// Elapsed is the measured wall time.
	Elapsed time.Duration
	// Hist is the merged latency histogram. Closed-loop latencies are
	// response times; open-loop latencies are measured from each request's
	// intended send time.
	Hist Histogram

	// Busy counts ERR_BUSY responses (requests the server shed under
	// overload; each is retried after backoff up to Config.Retries).
	Busy int64
	// Retries counts retry attempts across all causes (busy, IO, dial).
	Retries int64
	// Reconnects counts successful re-dials after a broken connection.
	Reconnects int64
	// GaveUp counts connections that exhausted Retries on one operation and
	// stopped early (their completed work still counts; the run goes on).
	GaveUp int64
	// ChaosStalls and ChaosKills count injected mid-frame stalls and
	// self-inflicted connection kills (Config.ChaosStallEvery/KillEvery).
	ChaosStalls, ChaosKills int64

	// Mallocs is the process-wide heap allocation count over the measured
	// phase (runtime.MemStats.Mallocs delta, prefill excluded). Divided by
	// Ops it approximates allocations per request across client and server
	// together — an upper bound on the server's own per-request allocations
	// when both run in one process, as in the bench harness. The hard
	// per-path guarantees live in kvservice's AllocsPerRun tests.
	Mallocs uint64
}

// Throughput returns completed operations per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// P50 returns the median latency.
func (r *Result) P50() time.Duration { return time.Duration(r.Hist.Quantile(0.50)) }

// P99 returns the 99th-percentile latency.
func (r *Result) P99() time.Duration { return time.Duration(r.Hist.Quantile(0.99)) }

// P999 returns the 99.9th-percentile latency.
func (r *Result) P999() time.Duration { return time.Duration(r.Hist.Quantile(0.999)) }

// keygen draws keys for one connection.
type keygen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	keys int64
}

func newKeygen(cfg Config, seed int64) *keygen {
	g := &keygen{rng: rand.New(rand.NewSource(seed)), keys: cfg.Keys}
	if cfg.Dist == DistZipf {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	}
	return g
}

func (g *keygen) next() int64 {
	if g.zipf != nil {
		return int64(g.zipf.Uint64())
	}
	return g.rng.Int63n(g.keys)
}

// connState is one connection's workload state and tallies.
type connState struct {
	conn  net.Conn
	rd    *bufio.Reader // buffered response reader (reset on reconnect)
	gen   *keygen
	value []byte
	req   []byte
	buf   []byte
	kinds []int8 // per-request op kind of the in-flight pipeline window
	hist  Histogram

	gets, puts, dels          int64
	busy, retries, reconnects int64
	chaosStalls, chaosKills   int64
	gaveUp                    bool
}

// errBusy marks an ERR_BUSY response inside the retry loop: the server shed
// the request but the connection (and its framing) is intact.
var errBusy = errors.New("kvload: server busy")

// ErrGaveUp marks a connection that exhausted Config.Retries on a single
// operation. Run treats it as a per-connection stop, not a run failure.
var ErrGaveUp = errors.New("kvload: connection gave up after retries")

// appendOp encodes one randomly drawn operation onto c.req and records its
// kind (0 GET, 1 PUT, 2 DEL) in c.kinds.
func (c *connState) appendOp(cfg Config) {
	k := c.gen.next()
	switch p := c.gen.rng.Intn(100); {
	case p < cfg.ReadPct:
		c.req = kvwire.AppendGet(c.req, k)
		c.kinds = append(c.kinds, 0)
	case p < cfg.ReadPct+cfg.DelPct:
		c.req = kvwire.AppendDel(c.req, k)
		c.kinds = append(c.kinds, 2)
	default:
		c.req = kvwire.AppendPut(c.req, k, c.value)
		c.kinds = append(c.kinds, 1)
	}
}

// readResp reads and decodes the next response frame.
func (c *connState) readResp() (kvwire.Response, error) {
	payload, err := kvwire.ReadFrame(c.rd, c.buf)
	if err != nil {
		return kvwire.Response{}, err
	}
	c.buf = payload
	return kvwire.DecodeResponse(payload)
}

// countOp credits one completed operation of the given kind.
func (c *connState) countOp(kind int8) {
	switch kind {
	case 0:
		c.gets++
	case 1:
		c.puts++
	default:
		c.dels++
	}
}

// step issues Config.Pipeline operations as one in-flight window (one
// operation in request/response lockstep at Pipeline 1): the whole window is
// encoded into one buffer and sent with a single write, then the responses
// are matched back strictly in request order. Each completed response
// records its latency from intended (the zero time means "now": closed-loop
// response time), so queueing behind earlier responses of the same window is
// charged to the requests that experience it. Requests the server shed with
// ERR_BUSY are counted but not credited; only a window shed in its entirety
// surfaces as errBusy, which stepRetry retries with backoff.
func (c *connState) step(cfg Config, intended time.Time) error {
	c.req = c.req[:0]
	c.kinds = c.kinds[:0]
	for i := 0; i < cfg.Pipeline; i++ {
		c.appendOp(cfg)
	}
	start := time.Now()
	if intended.IsZero() {
		intended = start
	}
	if cfg.ChaosKillEvery > 0 && c.gen.rng.Intn(cfg.ChaosKillEvery) == 0 {
		// Self-inflicted crash: the write below fails and the retry path
		// reconnects, exactly as if the network had cut us off mid-burst.
		c.chaosKills++
		c.conn.Close()
	}
	if err := c.writeReq(cfg); err != nil {
		return err
	}
	busy := 0
	for i := range c.kinds {
		resp, err := c.readResp()
		if err != nil {
			return err
		}
		switch resp.Status {
		case kvwire.StatusBusy:
			c.busy++
			busy++
			continue
		case kvwire.StatusErr:
			return fmt.Errorf("kvload: server error: %s", resp.Body)
		}
		c.hist.Record(int64(time.Since(intended)))
		c.countOp(c.kinds[i])
	}
	if busy == len(c.kinds) {
		return errBusy
	}
	return nil
}

// writeReq sends the encoded request, optionally stalling mid-frame (chaos
// mode): half the frame, a sleep, the rest — a slow peer from the server's
// point of view.
func (c *connState) writeReq(cfg Config) error {
	if cfg.ChaosStallEvery > 0 && len(c.req) > 1 && c.gen.rng.Intn(cfg.ChaosStallEvery) == 0 {
		c.chaosStalls++
		half := len(c.req) / 2
		if _, err := c.conn.Write(c.req[:half]); err != nil {
			return err
		}
		time.Sleep(cfg.ChaosStallFor)
		_, err := c.conn.Write(c.req[half:])
		return err
	}
	_, err := c.conn.Write(c.req)
	return err
}

// stepRetry runs step under the retry policy: transient failures (busy, IO,
// dial) back off exponentially with jitter and retry, reconnecting first
// when the connection broke; past Config.Retries consecutive failures the
// connection gives up (ErrGaveUp). Non-transient errors pass through.
func (c *connState) stepRetry(cfg Config, intended time.Time) error {
	backoff := cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		err := c.step(cfg, intended)
		if err == nil {
			return nil
		}
		busy := errors.Is(err, errBusy)
		if !busy && !transient(err) {
			return err
		}
		if attempt >= cfg.Retries {
			c.gaveUp = true
			return fmt.Errorf("%w: %v", ErrGaveUp, err)
		}
		c.retries++
		c.sleepBackoff(&backoff)
		if !busy {
			// The connection's framing state is unknown after an IO error:
			// drop it and re-dial. A failed dial is itself transient — the
			// next attempt (if any remain) tries again.
			c.conn.Close()
			if conn, derr := net.Dial("tcp", cfg.Addr); derr == nil {
				c.conn = conn
				c.rd.Reset(conn)
				c.reconnects++
			}
		}
	}
}

// sleepBackoff sleeps *backoff ±50% jitter and doubles it (capped at 100x
// the configured base).
func (c *connState) sleepBackoff(backoff *time.Duration) {
	d := *backoff
	if d <= 0 {
		return
	}
	jittered := d/2 + time.Duration(c.gen.rng.Int63n(int64(d)+1))
	time.Sleep(jittered)
	*backoff = d * 2
}

// transient reports whether err is worth retrying: busy shedding, timeouts
// and every networking failure (broken pipes, resets, refused dials, our own
// chaos kills), plus torn frames from a connection cut mid-response.
func transient(err error) bool {
	if errors.Is(err, errBusy) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// Run executes the configured load against the server and returns the merged
// measurements. Transient failures — ERR_BUSY shedding, broken connections,
// refused dials — are retried with backoff per Config.Retries; a connection
// that exhausts its retries stops early and is counted in Result.GaveUp
// without aborting the run. Only non-transient errors (protocol violations,
// server-reported errors) abort.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	states := make([]*connState, cfg.Conns)
	for i := range states {
		st := &connState{gen: newKeygen(cfg, cfg.Seed+int64(i)), value: make([]byte, cfg.ValueLen)}
		conn, err := dialRetry(cfg, st)
		if err != nil {
			for _, s := range states[:i] {
				s.conn.Close()
			}
			return nil, fmt.Errorf("kvload: %w", err)
		}
		st.conn = conn
		st.rd = bufio.NewReaderSize(conn, 32<<10)
		for b := range st.value {
			st.value[b] = byte('a' + b%26)
		}
		states[i] = st
	}
	defer func() {
		for _, s := range states {
			s.conn.Close()
		}
	}()
	if cfg.Prefill > 0 {
		if err := prefill(cfg, states); err != nil {
			return nil, err
		}
	}

	errs := make([]error, cfg.Conns)
	var wg sync.WaitGroup
	// The measured phase is bracketed with MemStats reads so Result.Mallocs
	// covers exactly the steady-state request traffic (prefill and dialing
	// excluded).
	var memStart runtime.MemStats
	runtime.ReadMemStats(&memStart)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for i, st := range states {
		wg.Add(1)
		go func(i int, st *connState) {
			defer wg.Done()
			if cfg.OpenLoop {
				errs[i] = runOpen(cfg, st, start, deadline)
			} else {
				errs[i] = runClosed(cfg, st, deadline)
			}
		}(i, st)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var memEnd runtime.MemStats
	runtime.ReadMemStats(&memEnd)
	res := &Result{Elapsed: elapsed, Mallocs: memEnd.Mallocs - memStart.Mallocs}
	for i, st := range states {
		if errs[i] != nil && !errors.Is(errs[i], ErrGaveUp) {
			return nil, fmt.Errorf("kvload: connection %d: %w", i, errs[i])
		}
		res.Gets += st.gets
		res.Puts += st.puts
		res.Dels += st.dels
		res.Busy += st.busy
		res.Retries += st.retries
		res.Reconnects += st.reconnects
		res.ChaosStalls += st.chaosStalls
		res.ChaosKills += st.chaosKills
		if st.gaveUp {
			res.GaveUp++
		}
		res.Hist.Merge(&st.hist)
	}
	res.Ops = res.Gets + res.Puts + res.Dels
	return res, nil
}

// dialRetry dials cfg.Addr under the retry policy (st's rng supplies the
// jitter and st's counters record the attempts), so a server still binding
// its listener — or refusing briefly under overload — does not fail the run.
func dialRetry(cfg Config, st *connState) (net.Conn, error) {
	backoff := cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		conn, err := net.Dial("tcp", cfg.Addr)
		if err == nil {
			return conn, nil
		}
		if attempt >= cfg.Retries {
			return nil, err
		}
		st.retries++
		st.sleepBackoff(&backoff)
	}
}

// runClosed issues back-to-back requests until the deadline.
func runClosed(cfg Config, st *connState, deadline time.Time) error {
	for time.Now().Before(deadline) {
		if err := st.stepRetry(cfg, time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

// runOpen issues requests on a fixed schedule, measuring from each request's
// intended send time so server stalls are charged to every request they
// delay (no coordinated omission). With pipelining each scheduling step is a
// whole window of Config.Pipeline requests sharing that step's intended
// time, so the interval stretches by the depth and the aggregate rate stays
// Config.Rate.
func runOpen(cfg Config, st *connState, start, deadline time.Time) error {
	interval := time.Duration(float64(time.Second) * float64(cfg.Conns) * float64(cfg.Pipeline) / cfg.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	for intended := start; intended.Before(deadline); intended = intended.Add(interval) {
		if wait := time.Until(intended); wait > 0 {
			time.Sleep(wait)
		}
		// When behind schedule we send immediately but still measure from
		// intended — the queueing delay is part of the latency.
		if err := st.stepRetry(cfg, intended); err != nil {
			return err
		}
	}
	return nil
}

// prefill PUTs keys [0, cfg.Prefill) striped over the connections.
func prefill(cfg Config, states []*connState) error {
	errs := make([]error, len(states))
	var wg sync.WaitGroup
	for i, st := range states {
		wg.Add(1)
		go func(i int, st *connState) {
			defer wg.Done()
			var req, buf []byte
			for k := int64(i); k < cfg.Prefill; k += int64(len(states)) {
				for attempt := 0; ; attempt++ {
					req = kvwire.AppendPut(req[:0], k, st.value)
					if _, err := st.conn.Write(req); err != nil {
						errs[i] = err
						return
					}
					payload, err := kvwire.ReadFrame(st.rd, buf)
					if err != nil {
						errs[i] = err
						return
					}
					buf = payload
					resp, err := kvwire.DecodeResponse(payload)
					if err != nil {
						errs[i] = err
						return
					}
					if resp.Status == kvwire.StatusBusy && attempt < cfg.Retries {
						// The unmeasured prefill just waits overload out.
						time.Sleep(cfg.RetryBackoff)
						continue
					}
					if resp.Status != kvwire.StatusOK {
						errs[i] = fmt.Errorf("prefill PUT: status %v", resp.Status)
						return
					}
					break
				}
			}
		}(i, st)
	}
	wg.Wait()
	return errors.Join(errs...)
}

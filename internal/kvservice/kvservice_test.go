package kvservice_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/kvwire"
	"repro/internal/recordmgr"
)

// client is a minimal synchronous kvwire client for driving the server in
// tests.
type client struct {
	t    *testing.T
	conn net.Conn
	buf  []byte
}

func dial(t *testing.T, addr net.Addr) *client {
	t.Helper()
	conn, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{t: t, conn: conn}
}

func (c *client) roundTrip(frame []byte) kvwire.Response {
	c.t.Helper()
	if _, err := c.conn.Write(frame); err != nil {
		c.t.Fatalf("write: %v", err)
	}
	payload, err := kvwire.ReadFrame(c.conn, c.buf)
	if err != nil {
		c.t.Fatalf("read response: %v", err)
	}
	c.buf = payload
	resp, err := kvwire.DecodeResponse(payload)
	if err != nil {
		c.t.Fatalf("decode response: %v", err)
	}
	return resp
}

func (c *client) get(key int64) kvwire.Response { return c.roundTrip(kvwire.AppendGet(nil, key)) }
func (c *client) del(key int64) kvwire.Response { return c.roundTrip(kvwire.AppendDel(nil, key)) }
func (c *client) stats() kvwire.Response        { return c.roundTrip(kvwire.AppendStats(nil)) }
func (c *client) put(key int64, v string) kvwire.Response {
	return c.roundTrip(kvwire.AppendPut(nil, key, []byte(v)))
}

func startServer(t *testing.T, cfg kvservice.Config) (*kvservice.Server, net.Addr) {
	t.Helper()
	srv, err := kvservice.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return srv, addr
}

func TestServerBasicOps(t *testing.T) {
	srv, addr := startServer(t, kvservice.Config{Scheme: recordmgr.SchemeDEBRA, Partitions: 2, MaxConns: 2, Burst: 4, UsePool: true})
	defer srv.Close()
	c := dial(t, addr)

	if resp := c.get(1); resp.Status != kvwire.StatusNotFound {
		t.Fatalf("GET on empty store: %v", resp.Status)
	}
	if resp := c.put(1, "one"); resp.Status != kvwire.StatusOK || !bytes.Equal(resp.Body, []byte{0}) {
		t.Fatalf("first PUT: status=%v body=%v", resp.Status, resp.Body)
	}
	if resp := c.put(1, "uno"); resp.Status != kvwire.StatusOK || !bytes.Equal(resp.Body, []byte{1}) {
		t.Fatalf("replacing PUT: status=%v body=%v", resp.Status, resp.Body)
	}
	if resp := c.get(1); resp.Status != kvwire.StatusOK || string(resp.Body) != "uno" {
		t.Fatalf("GET after PUT: status=%v body=%q", resp.Status, resp.Body)
	}
	if resp := c.del(1); resp.Status != kvwire.StatusOK || !bytes.Equal(resp.Body, []byte{1}) {
		t.Fatalf("DEL of present key: status=%v body=%v", resp.Status, resp.Body)
	}
	if resp := c.del(1); resp.Status != kvwire.StatusOK || !bytes.Equal(resp.Body, []byte{0}) {
		t.Fatalf("DEL of absent key: status=%v body=%v", resp.Status, resp.Body)
	}
	if resp := c.get(1); resp.Status != kvwire.StatusNotFound {
		t.Fatalf("GET after DEL: %v", resp.Status)
	}

	resp := c.stats()
	if resp.Status != kvwire.StatusOK {
		t.Fatalf("STATS: %v", resp.Status)
	}
	var snap kvservice.Snapshot
	if err := json.Unmarshal(resp.Body, &snap); err != nil {
		t.Fatalf("STATS body is not valid JSON: %v\n%s", err, resp.Body)
	}
	// The connection's own preceding operations must be visible in its STATS
	// response even mid-burst.
	if snap.Gets != 3 || snap.GetHits != 1 || snap.Puts != 2 || snap.PutReplaced != 1 || snap.Dels != 2 || snap.DelHits != 1 {
		t.Fatalf("STATS counters: %+v", snap)
	}
	if snap.Scheme != recordmgr.SchemeDEBRA || snap.Partitions != 2 {
		t.Fatalf("STATS identity: %+v", snap)
	}
}

func TestServerRejectsMalformedAndCloses(t *testing.T) {
	srv, addr := startServer(t, kvservice.Config{Scheme: recordmgr.SchemeEBR, UsePool: true})
	defer srv.Close()
	c := dial(t, addr)
	// An unknown opcode inside a well-formed frame gets a diagnostic, then
	// the server drops the connection.
	bad := []byte{0, 0, 0, 1, 0xee}
	if _, err := c.conn.Write(bad); err != nil {
		t.Fatalf("write: %v", err)
	}
	payload, err := kvwire.ReadFrame(c.conn, nil)
	if err != nil {
		t.Fatalf("reading error response: %v", err)
	}
	resp, err := kvwire.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Status != kvwire.StatusErr {
		t.Fatalf("malformed request: got status %v, want StatusErr", resp.Status)
	}
	if _, err := kvwire.ReadFrame(c.conn, nil); err == nil {
		t.Fatal("connection stayed open after a protocol violation")
	}
}

// TestServerLifecycle is the issue's acceptance test: for every scheme,
// drive concurrent clients through mixed traffic (more connections than
// worker slots, so burst release/reacquire churn is exercised), close the
// server, and assert the shutdown invariant Retired == Freed.
func TestServerLifecycle(t *testing.T) {
	const (
		conns      = 6
		maxConns   = 3 // fewer slots than connections: bursts must multiplex
		reqsPer    = 300
		burst      = 16
		partitions = 2
	)
	for _, scheme := range recordmgr.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			if scheme == recordmgr.SchemeDEBRAPlus {
				// New refuses it (TestServerConfigValidation); that is the
				// lifecycle there is to test.
				if _, err := kvservice.New(kvservice.Config{Scheme: scheme}); err == nil {
					t.Fatal("New accepted debra+")
				}
				return
			}
			srv, addr := startServer(t, kvservice.Config{
				Scheme:     scheme,
				Partitions: partitions,
				MaxConns:   maxConns,
				Burst:      burst,
				UsePool:    true,
			})
			var wg sync.WaitGroup
			for w := 0; w < conns; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					conn, err := net.Dial(addr.Network(), addr.String())
					if err != nil {
						t.Errorf("conn %d: dial: %v", w, err)
						return
					}
					defer conn.Close()
					var req, buf []byte
					for i := 0; i < reqsPer; i++ {
						key := int64(w*reqsPer + i%100)
						switch i % 4 {
						case 0, 1:
							req = kvwire.AppendPut(req[:0], key, []byte(fmt.Sprintf("v%d", i)))
						case 2:
							req = kvwire.AppendGet(req[:0], key)
						default:
							req = kvwire.AppendDel(req[:0], key)
						}
						if _, err := conn.Write(req); err != nil {
							t.Errorf("conn %d: write: %v", w, err)
							return
						}
						payload, err := kvwire.ReadFrame(conn, buf)
						if err != nil {
							t.Errorf("conn %d: read: %v", w, err)
							return
						}
						buf = payload
						resp, err := kvwire.DecodeResponse(payload)
						if err != nil {
							t.Errorf("conn %d: decode: %v", w, err)
							return
						}
						if resp.Status == kvwire.StatusErr {
							t.Errorf("conn %d: server error: %s", w, resp.Body)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			srv.Close()
			snap := srv.Stats()
			if snap.Gets+snap.Puts+snap.Dels != conns*reqsPer {
				t.Fatalf("served %d ops, want %d", snap.Gets+snap.Puts+snap.Dels, conns*reqsPer)
			}
			if snap.SlotsLive != 0 {
				t.Fatalf("slots still live after Close: %d", snap.SlotsLive)
			}
			m := snap.Manager
			if scheme != recordmgr.SchemeNone {
				if m.Retired != m.Freed {
					t.Fatalf("after Close: Retired=%d Freed=%d", m.Retired, m.Freed)
				}
				if m.Unreclaimed != 0 {
					t.Fatalf("after Close: Unreclaimed=%d", m.Unreclaimed)
				}
			}
			if m.Retired == 0 {
				t.Fatal("workload retired nothing; the test is not exercising reclamation")
			}
		})
	}
}

// TestServerIdleConnDoesNotStarveOthers is the regression test for the slot
// starvation deadlock: a connection that went idle mid-burst used to keep its
// worker slots until its next request, and once every slot was parked that
// way the remaining connections spun in acquire forever — kvload's prefill,
// which leaves connections open and idle after their stripe, wedged the
// server deterministically whenever conns > MaxConns. IdleHold is the fix:
// an idle holder releases its slots and reacquires on its next frame.
func TestServerIdleConnDoesNotStarveOthers(t *testing.T) {
	srv, addr := startServer(t, kvservice.Config{
		Scheme:     recordmgr.SchemeDEBRA,
		Partitions: 2,
		MaxConns:   1, // a single slot per partition: one parked holder starves everyone
		Burst:      8,
		IdleHold:   2 * time.Millisecond,
		UsePool:    true,
	})
	defer srv.Close()

	a := dial(t, addr)
	if resp := a.put(1, "one"); resp.Status != kvwire.StatusOK {
		t.Fatalf("conn A PUT: %v", resp.Status)
	}

	// Conn A is now parked mid-burst (1 of 8 requests served), holding the
	// only slot of every partition. Without the idle release, conn B's first
	// request would wait in acquire forever.
	type result struct {
		resp kvwire.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		conn, err := net.Dial(addr.Network(), addr.String())
		if err != nil {
			done <- result{err: err}
			return
		}
		defer conn.Close()
		if _, err := conn.Write(kvwire.AppendPut(nil, 2, []byte("two"))); err != nil {
			done <- result{err: err}
			return
		}
		payload, err := kvwire.ReadFrame(conn, nil)
		if err != nil {
			done <- result{err: err}
			return
		}
		resp, err := kvwire.DecodeResponse(payload)
		done <- result{resp: resp, err: err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("conn B: %v", r.err)
		}
		if r.resp.Status != kvwire.StatusOK {
			t.Fatalf("conn B PUT: %v", r.resp.Status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("conn B starved: the idle conn A never released its slots")
	}

	// Conn A reacquires transparently after its idle release.
	if resp := a.get(1); resp.Status != kvwire.StatusOK || string(resp.Body) != "one" {
		t.Fatalf("conn A GET after idle release: status=%v body=%q", resp.Status, resp.Body)
	}

	// Once both connections idle past IdleHold, every slot returns to the
	// registries.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().SlotsLive != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slots still live on idle connections: %d", srv.Stats().SlotsLive)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerCloseIdempotentAndStartAfterClose(t *testing.T) {
	srv, _ := startServer(t, kvservice.Config{UsePool: true})
	srv.Close()
	srv.Close() // must not panic or deadlock
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Fatal("Start after Close succeeded")
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := kvservice.New(kvservice.Config{Scheme: "bogus", UsePool: true}); err == nil {
		t.Fatal("New accepted an unknown scheme")
	}
	if _, err := kvservice.New(kvservice.Config{Scheme: recordmgr.SchemeDEBRAPlus, UsePool: true}); err == nil || !strings.Contains(err.Error(), "debra+") {
		t.Fatalf("New accepted debra+, or refused it without naming it: %v", err)
	}
	if _, err := kvservice.New(kvservice.Config{Partitions: -1, UsePool: true}); err == nil {
		t.Fatal("New accepted negative Partitions")
	}
	if _, err := kvservice.New(kvservice.Config{MaxConns: -1, UsePool: true}); err == nil {
		t.Fatal("New accepted negative MaxConns")
	}
	if _, err := kvservice.New(kvservice.Config{Burst: -1, UsePool: true}); err == nil {
		t.Fatal("New accepted negative Burst")
	}
	if _, err := kvservice.New(kvservice.Config{IdleHold: -time.Millisecond, UsePool: true}); err == nil {
		t.Fatal("New accepted negative IdleHold")
	}
}

// TestServerRequiresPool: the hash map links its records by index and must
// recycle them, so New refuses a config without UsePool, and says why,
// rather than letting hashmap.New panic.
func TestServerRequiresPool(t *testing.T) {
	for _, scheme := range []string{recordmgr.SchemeDEBRA, recordmgr.SchemeHP} {
		if _, err := kvservice.New(kvservice.Config{Scheme: scheme}); err == nil || !strings.Contains(err.Error(), "UsePool") {
			t.Fatalf("%s: New without UsePool = %v, want an error naming UsePool", scheme, err)
		}
	}
}

package kvservice_test

import (
	"net"
	"runtime"
	"testing"

	"repro/internal/kvservice"
	"repro/internal/kvwire"
	"repro/internal/recordmgr"
)

// These tests enforce the zero-alloc steady state of the server's request
// path. The counts are process-wide (the server's goroutines run in this
// process), so the client loop below must itself be allocation-free: a
// pre-encoded request frame, one Write, one ReadFrame into a reused buffer.
// Whatever is measured is then the server's per-request cost plus the
// amortised tails (pool block recycling), which is exactly the bound the
// batch path is designed to hold.

// allocClient is the zero-allocation closed-loop client driven inside the
// measurements.
type allocClient struct {
	t    *testing.T
	conn net.Conn
	req  []byte
	buf  []byte
}

func (c *allocClient) do() {
	if _, err := c.conn.Write(c.req); err != nil {
		c.t.Fatalf("write: %v", err)
	}
	payload, err := kvwire.ReadFrame(c.conn, c.buf)
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	c.buf = payload
}

// warmClient starts a server and returns a client that sends req, with the
// connection's buffers and the map warmed past every growth tail.
func warmClient(t *testing.T, req []byte) *allocClient {
	t.Helper()
	srv, addr := startServer(t, kvservice.Config{
		Scheme:  recordmgr.SchemeDEBRA,
		UsePool: true,
		// A huge burst keeps slot release/reacquire churn out of the
		// measurement: the test bounds the request path, not slot turnover.
		Burst: 1 << 20,
	})
	t.Cleanup(srv.Close)
	conn, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })

	c := &allocClient{t: t, conn: conn, buf: make([]byte, 256)}
	// Seed the key so GETs hit and PUTs replace, then warm: the first requests
	// grow the connection's read/write buffers, the map node pool and the
	// stored-value arrays its records carry, all of which must be out of the
	// way before counting.
	c.req = kvwire.AppendPut(nil, 1, make([]byte, 16))
	c.do()
	c.req = req
	for i := 0; i < 2000; i++ {
		c.do()
	}
	return c
}

func TestSteadyStateGetAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is a long loop")
	}
	allocs := testing.AllocsPerRun(5000, warmClient(t, kvwire.AppendGet(nil, 1)).do)
	t.Logf("steady-state GET: %.3f allocs/op (process-wide)", allocs)
	if allocs > 1 {
		t.Fatalf("steady-state GET allocates %.3f/op, want <= 1", allocs)
	}
}

func TestSteadyStatePutAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is a long loop")
	}
	allocs := testing.AllocsPerRun(5000, warmClient(t, kvwire.AppendPut(nil, 1, make([]byte, 16))).do)
	t.Logf("steady-state PUT: %.3f allocs/op (process-wide)", allocs)
	// PUT carries an amortised tail GET does not: the pool's block recycling
	// under retire pressure.
	if allocs > 2 {
		t.Fatalf("steady-state PUT allocates %.3f/op, want <= 2", allocs)
	}
}

// TestSteadyStatePutBytes bounds the bytes, not the allocations, of a
// steady-state PUT: the value is written into the array its recycled node
// last held, so a replacing PUT allocates nothing for it. AllocsPerRun cannot
// see a 16-byte copy per request that is carved out of a larger chunk — it
// rounds one chunk per few thousand requests down to zero — TotalAlloc can.
func TestSteadyStatePutBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is a long loop")
	}
	c := warmClient(t, kvwire.AppendPut(nil, 1, make([]byte, 16)))
	const rounds = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		c.do()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("steady-state PUT: %.3f B/op (process-wide)", perOp)
	if perOp > 1 {
		t.Fatalf("steady-state PUT allocates %.3f B/op, want <= 1", perOp)
	}
}

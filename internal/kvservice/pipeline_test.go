package kvservice_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/kvwire"
	"repro/internal/recordmgr"
)

// These are the pipelined-protocol conformance tests: a client that writes
// many frames before reading anything must get exactly one response per
// request, in request order, regardless of how the bytes were chunked on the
// wire, how deep the server's batches are, and whether the slot-tenure
// timeouts (IdleHold, ReadTimeout) fire between frames.

// readResponse reads and decodes the next response frame off conn.
func readResponse(t *testing.T, conn net.Conn, buf []byte) (kvwire.Response, []byte) {
	t.Helper()
	payload, err := kvwire.ReadFrame(conn, buf)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	resp, err := kvwire.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, payload
}

// TestPipelineBatchInOrder writes a window of interdependent requests in one
// write and checks every response against sequential semantics: per-key
// operation order is request order across the map's two partitions.
func TestPipelineBatchInOrder(t *testing.T) {
	srv, addr := startServer(t, kvservice.Config{
		Scheme: recordmgr.SchemeDEBRA, Partitions: 2, UsePool: true,
	})
	defer srv.Close()
	conn, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	var batch []byte
	batch = kvwire.AppendPut(batch, 1, []byte("a")) // created -> 0
	batch = kvwire.AppendPut(batch, 1, []byte("b")) // replaced -> 1
	batch = kvwire.AppendGet(batch, 1)              // "b"
	batch = kvwire.AppendPut(batch, 2, []byte("x")) // other key, same window
	batch = kvwire.AppendDel(batch, 1)              // hit -> 1
	batch = kvwire.AppendGet(batch, 1)              // NotFound
	batch = kvwire.AppendGet(batch, 2)              // "x"
	batch = kvwire.AppendDel(batch, 3)              // miss -> 0
	if _, err := conn.Write(batch); err != nil {
		t.Fatalf("write batch: %v", err)
	}

	want := []struct {
		status kvwire.Status
		body   string
	}{
		{kvwire.StatusOK, "\x00"},
		{kvwire.StatusOK, "\x01"},
		{kvwire.StatusOK, "b"},
		{kvwire.StatusOK, "\x00"},
		{kvwire.StatusOK, "\x01"},
		{kvwire.StatusNotFound, ""},
		{kvwire.StatusOK, "x"},
		{kvwire.StatusOK, "\x00"},
	}
	var buf []byte
	for i, w := range want {
		var resp kvwire.Response
		resp, buf = readResponse(t, conn, buf)
		if resp.Status != w.status || string(resp.Body) != w.body {
			t.Fatalf("response %d: status=%v body=%q, want status=%v body=%q",
				i, resp.Status, resp.Body, w.status, w.body)
		}
	}
}

// TestPipelineInterleavedWrites streams several frames byte-by-byte and in
// odd-sized chunks: the server must reassemble frames across reads and never
// answer a frame early or out of order.
func TestPipelineInterleavedWrites(t *testing.T) {
	srv, addr := startServer(t, kvservice.Config{Scheme: recordmgr.SchemeEBR, UsePool: true})
	defer srv.Close()
	conn, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	var stream []byte
	stream = kvwire.AppendPut(stream, 7, []byte("seven"))
	stream = kvwire.AppendGet(stream, 7)
	stream = kvwire.AppendPut(stream, 8, []byte("eight"))
	stream = kvwire.AppendGet(stream, 8)

	done := make(chan error, 1)
	go func() {
		// Dribble the stream: single bytes for the first frame and a half,
		// then ragged 3-byte chunks, so reads land on every kind of frame
		// boundary.
		for i := 0; i < len(stream); {
			n := 1
			if i > len(stream)/3 {
				n = 3
			}
			if i+n > len(stream) {
				n = len(stream) - i
			}
			if _, err := conn.Write(stream[i : i+n]); err != nil {
				done <- err
				return
			}
			i += n
			time.Sleep(200 * time.Microsecond)
		}
		done <- nil
	}()

	var buf []byte
	var resp kvwire.Response
	resp, buf = readResponse(t, conn, buf)
	if resp.Status != kvwire.StatusOK || !bytes.Equal(resp.Body, []byte{0}) {
		t.Fatalf("PUT 7: status=%v body=%v", resp.Status, resp.Body)
	}
	resp, buf = readResponse(t, conn, buf)
	if resp.Status != kvwire.StatusOK || string(resp.Body) != "seven" {
		t.Fatalf("GET 7: status=%v body=%q", resp.Status, resp.Body)
	}
	resp, buf = readResponse(t, conn, buf)
	if resp.Status != kvwire.StatusOK || !bytes.Equal(resp.Body, []byte{0}) {
		t.Fatalf("PUT 8: status=%v body=%v", resp.Status, resp.Body)
	}
	resp, _ = readResponse(t, conn, buf)
	if resp.Status != kvwire.StatusOK || string(resp.Body) != "eight" {
		t.Fatalf("GET 8: status=%v body=%q", resp.Status, resp.Body)
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

// TestPipelineMalformedMidBatch sends good frames followed by a malformed one
// in a single write: every preceding request must be answered (flushed before
// the drop), then the diagnostic ERR arrives and the connection closes.
func TestPipelineMalformedMidBatch(t *testing.T) {
	cases := []struct {
		name string
		tail []byte
	}{
		{"unknown opcode", []byte{0, 0, 0, 1, 0xee}},
		{"empty frame", []byte{0, 0, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, kvservice.Config{Scheme: recordmgr.SchemeDEBRA, UsePool: true})
			defer srv.Close()
			conn, err := net.Dial(addr.Network(), addr.String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()

			var batch []byte
			batch = kvwire.AppendPut(batch, 1, []byte("one"))
			batch = kvwire.AppendGet(batch, 1)
			batch = kvwire.AppendGet(batch, 2)
			batch = append(batch, tc.tail...)
			if _, err := conn.Write(batch); err != nil {
				t.Fatalf("write batch: %v", err)
			}

			var buf []byte
			var resp kvwire.Response
			resp, buf = readResponse(t, conn, buf)
			if resp.Status != kvwire.StatusOK {
				t.Fatalf("PUT before the malformed frame: %v", resp.Status)
			}
			resp, buf = readResponse(t, conn, buf)
			if resp.Status != kvwire.StatusOK || string(resp.Body) != "one" {
				t.Fatalf("GET 1 before the malformed frame: status=%v body=%q", resp.Status, resp.Body)
			}
			resp, buf = readResponse(t, conn, buf)
			if resp.Status != kvwire.StatusNotFound {
				t.Fatalf("GET 2 before the malformed frame: %v", resp.Status)
			}
			resp, _ = readResponse(t, conn, buf)
			if resp.Status != kvwire.StatusErr {
				t.Fatalf("malformed frame: got status %v, want StatusErr", resp.Status)
			}
			assertDropped(t, conn, 5*time.Second)
		})
	}
}

// TestPipelineDepthCap floods the connection with more frames than the
// server's PipelineDepth in one write: every frame is still answered in
// order (the drain loop runs multiple batches) and the batch counter shows
// the cap was respected rather than one giant batch executed.
func TestPipelineDepthCap(t *testing.T) {
	const depth, frames = 4, 12
	srv, addr := startServer(t, kvservice.Config{
		Scheme: recordmgr.SchemeDEBRA, UsePool: true, PipelineDepth: depth,
	})
	conn, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	var batch []byte
	for i := int64(0); i < frames; i++ {
		batch = kvwire.AppendPut(batch, i, []byte("v"))
	}
	if _, err := conn.Write(batch); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	var buf []byte
	for i := 0; i < frames; i++ {
		var resp kvwire.Response
		resp, buf = readResponse(t, conn, buf)
		if resp.Status != kvwire.StatusOK || !bytes.Equal(resp.Body, []byte{0}) {
			t.Fatalf("PUT %d: status=%v body=%v", i, resp.Status, resp.Body)
		}
	}
	conn.Close()
	srv.Close()
	snap := srv.Stats()
	if snap.Puts != frames {
		t.Fatalf("served %d PUTs, want %d", snap.Puts, frames)
	}
	if minBatches := int64(frames / depth); snap.Batches < minBatches {
		t.Fatalf("PipelineDepth=%d over %d frames ran %d batches, want >= %d",
			depth, frames, snap.Batches, minBatches)
	}
}

// TestPipelineIdleHoldReleasesSlotsMidWindow checks the batching path against
// the slot-tenure contract: a connection holding slots mid-burst with a
// partial frame buffered must still release its slots after IdleHold, and the
// late-completed frame must then be served through a transparent reacquire.
func TestPipelineIdleHoldReleasesSlotsMidWindow(t *testing.T) {
	srv, addr := startServer(t, kvservice.Config{
		Scheme:   recordmgr.SchemeDEBRA,
		UsePool:  true,
		IdleHold: 5 * time.Millisecond,
	})
	defer srv.Close()
	conn, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	// One complete frame binds the slots; the trailing partial frame keeps
	// the connection mid-window.
	full := kvwire.AppendPut(nil, 1, []byte("one"))
	next := kvwire.AppendGet(nil, 1)
	if _, err := conn.Write(append(append([]byte(nil), full...), next[:5]...)); err != nil {
		t.Fatalf("write: %v", err)
	}
	var buf []byte
	resp, buf := readResponse(t, conn, buf)
	if resp.Status != kvwire.StatusOK {
		t.Fatalf("PUT: %v", resp.Status)
	}

	// The partial frame is not a completed request, so IdleHold must return
	// the slots to the registry while the connection stays up.
	waitFor(t, 5*time.Second, "idle slot release with a partial frame buffered", func() bool {
		return srv.Stats().SlotsLive == 0
	})

	// Completing the frame reacquires and serves as if nothing happened.
	if _, err := conn.Write(next[5:]); err != nil {
		t.Fatalf("write completion: %v", err)
	}
	resp, _ = readResponse(t, conn, buf)
	if resp.Status != kvwire.StatusOK || string(resp.Body) != "one" {
		t.Fatalf("GET after idle release: status=%v body=%q", resp.Status, resp.Body)
	}
}

// TestPipelineReadTimeoutDropsTrailingPartial checks the other tenure bound:
// when a window's trailing frame never completes, the preceding responses are
// flushed and the connection is dropped once the frame's absolute ReadTimeout
// expires — batching must not let a half-frame hold the connection forever.
func TestPipelineReadTimeoutDropsTrailingPartial(t *testing.T) {
	srv, addr := startServer(t, kvservice.Config{
		Scheme:      recordmgr.SchemeDEBRA,
		UsePool:     true,
		IdleHold:    5 * time.Millisecond,
		ReadTimeout: 50 * time.Millisecond,
	})
	defer srv.Close()
	conn, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	var batch []byte
	batch = kvwire.AppendPut(batch, 1, []byte("one"))
	batch = kvwire.AppendGet(batch, 1)
	partial := kvwire.AppendGet(nil, 2)
	batch = append(batch, partial[:5]...)
	if _, err := conn.Write(batch); err != nil {
		t.Fatalf("write: %v", err)
	}

	// Both complete frames are answered even though the window ends in an
	// abandoned half-frame.
	var buf []byte
	resp, buf := readResponse(t, conn, buf)
	if resp.Status != kvwire.StatusOK {
		t.Fatalf("PUT: %v", resp.Status)
	}
	resp, _ = readResponse(t, conn, buf)
	if resp.Status != kvwire.StatusOK || string(resp.Body) != "one" {
		t.Fatalf("GET: status=%v body=%q", resp.Status, resp.Body)
	}
	// The half-frame never completes: the connection must be dropped once its
	// ReadTimeout expires.
	assertDropped(t, conn, 5*time.Second)
}

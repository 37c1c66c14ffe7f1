package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"

	"repro/internal/kvservice"
	"repro/internal/kvwire"
	"repro/internal/recordmgr"
)

// svcWorker is one closed-loop connection: it keeps depth requests in flight
// by sending a window of depth frames in one write and reading the depth
// responses before it generates the next window. Steady state allocates
// nothing: every buffer is reused.
type svcWorker struct {
	tally
	id     int
	g      *gen
	depth  int
	conn   net.Conn
	br     *bufio.Reader
	wbuf   []byte
	rbuf   []byte
	val    [valueLen]byte
	window []op
}

// prefillDepth is the window the prefill and the final sweep use on every
// service workload: they are set-up and checking, not the measured shape.
const prefillDepth = 32

func (w *svcWorker) run(ops int) {
	for done := 0; done < ops && w.err == nil; done += w.depth {
		traced := w.tr != nil && (w.ops/int64(w.depth))&w.tr.mask == 0
		var start int64
		if traced {
			start = now()
		}
		w.window = w.window[:0]
		for i := 0; i < w.depth; i++ {
			w.window = append(w.window, w.g.next())
		}
		w.exchange(traced, start)
	}
}

// exchange sends w.window as one write, reads one response per request and
// checks each against the model. start is when the window's generation
// began, for the traced root span.
func (w *svcWorker) exchange(traced bool, start int64) {
	n := len(w.window)
	t0 := now()
	w.wbuf = w.wbuf[:0]
	for _, o := range w.window {
		w.wbuf = appendRequest(w.wbuf, o, &w.val)
	}
	t1 := now()
	if _, err := w.conn.Write(w.wbuf); err != nil {
		w.err = fmt.Errorf("conn %d write: %w", w.id, err)
		return
	}
	w.bytes += int64(len(w.wbuf))
	var t2 int64
	for i, o := range w.window {
		payload, err := kvwire.ReadFrame(w.br, w.rbuf)
		if err != nil {
			w.err = fmt.Errorf("conn %d read: %w", w.id, err)
			return
		}
		if i == 0 {
			t2 = now()
		}
		w.bytes += int64(len(payload)) + 4
		resp, err := kvwire.DecodeResponse(payload)
		if err != nil {
			w.err = fmt.Errorf("conn %d decode: %w", w.id, err)
			return
		}
		checkResponse(&w.tally, &w.val, o, resp)
	}
	t3 := now()
	w.lat.add(t3 - t0)
	if traced {
		req := uint64(w.id)<<48 | uint64(w.ops)
		p := w.tr.add("window", start, t3, -1, req, n)
		w.tr.add("bench.generate", start, t0, p, req, n)
		w.tr.add("kvwire.encode_req", t0, t1, p, req, n)
		w.tr.add("kvservice.roundtrip", t1, t2, p, req, n)
		w.tr.add("kvwire.decode_resp", t2, t3, p, req, n)
	}
	w.ops += int64(n)
	w.observe()
}

// checkResponse compares one response with what the model expects for its
// request and books the outcome in t. val is scratch for the expected value.
func checkResponse(t *tally, val *[valueLen]byte, o op, resp kvwire.Response) {
	present := o.want != 0
	ok := false
	switch {
	case resp.Status == kvwire.StatusBusy:
		t.busy++
		return
	case o.kind == opRead:
		t.reads++
		if resp.Status == kvwire.StatusOK {
			t.readHits++
			ok = present && bytes.Equal(resp.Body, appendValue(val[:0], o.key, o.want))
		} else {
			ok = !present && resp.Status == kvwire.StatusNotFound
		}
	default: // put and del answer OK with a one-byte "key was present" flag
		t.updates++
		if o.kind == opPut || present {
			t.updateOKs++
		}
		ok = resp.Status == kvwire.StatusOK && len(resp.Body) == 1 && (resp.Body[0] == 1) == present
	}
	if !ok {
		t.failed++
	}
}

// exchangeAll runs ops through the connection in prefillDepth windows.
func (w *svcWorker) exchangeAll(ops []op) {
	for len(ops) > 0 && w.err == nil {
		n := min(len(ops), prefillDepth)
		w.window = append(w.window[:0], ops[:n]...)
		w.exchange(false, 0)
		ops = ops[n:]
	}
}

// buildService starts the KV server in this process on a loopback port and
// connects, checks and prefills one connection per worker. A second process
// was measured and rejected: see README.md, "Noise findings".
func buildService(s *spec, seed uint64) (*target, error) {
	srv, err := kvservice.New(kvservice.Config{
		Scheme: recordmgr.SchemeDEBRA, Partitions: mapPartitions, UsePool: true,
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &target{spec: s}
	t.counters = func() counters {
		snap := srv.Stats()
		m := snap.Manager
		return counters{
			Retired: m.Retired, Freed: m.Freed, Limbo: m.Limbo, Unreclaimed: m.Unreclaimed,
			EpochAdvances: m.EpochAdvances, Scans: m.Scans, Fresh: m.Allocated, Reused: m.PoolReused,
			Batches: snap.Batches, Busy: snap.Busy,
		}
	}
	var ws []*svcWorker
	closeAll := func() {
		for _, w := range ws {
			w.conn.Close()
		}
		srv.Close()
	}
	for i := 0; i < s.workers; i++ {
		t0 := now()
		conn, err := net.Dial(addr.Network(), addr.String())
		if err != nil {
			closeAll()
			return nil, err
		}
		w := &svcWorker{
			id: i, g: newGen(s, seed, i), depth: s.depth, conn: conn,
			br:   bufio.NewReaderSize(conn, 64<<10),
			rbuf: make([]byte, 4096),
		}
		ws = append(ws, w)
		// The first round trip belongs to connection set-up: the server
		// starts the handler, binds its slots and sizes its buffers on it.
		w.exchangeAll([]op{{kind: opRead, key: w.g.offset}})
		t.connSetupNs += now() - t0
		w.exchangeAll(w.g.prefillOps(s, seed, i))
		if w.err != nil {
			closeAll()
			return nil, w.err
		}
		t.workers = append(t.workers, w)
	}
	t.connSetupNs /= int64(s.workers)
	// sweep checks the final contents: it reads every owned key back through
	// the wire and compares the server's key count with the models'.
	sweep := func() error {
		keys := 0
		for _, w := range ws {
			reads := make([]op, 0, len(w.g.model))
			for u, seq := range w.g.model {
				reads = append(reads, op{kind: opRead, key: int64(u)*w.g.stride + w.g.offset, want: seq})
				if seq != 0 {
					keys++
				}
			}
			unverified := w.failed + w.busy
			w.exchangeAll(reads)
			if w.err != nil {
				return w.err
			}
			if n := w.failed + w.busy - unverified; n != 0 {
				return fmt.Errorf("%s: conn %d: %d keys differ from the model after the run", s.name, w.id, n)
			}
		}
		if got := srv.Stats().Keys; got != keys {
			return fmt.Errorf("%s: server holds %d keys, models hold %d", s.name, got, keys)
		}
		return nil
	}
	t.finish = func() error {
		err := sweep()
		closeAll()
		if err != nil {
			return err
		}
		return checkDrained(s.name, t.counters())
	}
	return t, nil
}

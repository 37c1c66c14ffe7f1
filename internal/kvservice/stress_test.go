package kvservice_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kvservice"
	"repro/internal/kvwire"
	"repro/internal/recordmgr"
)

// Shape of TestStressValueIntegrity.
const (
	stressConns  = 4
	stressKeys   = 64
	stressWindow = 16 // requests per pipelined write
	// stressBand keys above stressKeys are only ever overwritten: PUT and
	// GET, never DEL.
	stressBand = 8
	// valHeader is the self-description at the front of a value: key (8),
	// writer (4), sequence number (4), length (4), checksum (4).
	valHeader = 24
	// maxValueShift bounds value lengths at 1<<maxValueShift = 8 KiB.
	maxValueShift = 13
)

// valueLog is what the writers have put on the wire, for the readers to check
// GET bodies against.
type valueLog struct {
	issued [stressConns]atomic.Uint32 // highest sequence number writer w has sent
	// short[key][n]: a value of n < valHeader bytes was sent for key.
	short [stressKeys + stressBand][valHeader]atomic.Bool
	// bound[i]: a PUT of band key stressKeys+i has been answered, so the key
	// is in the map for good.
	bound [stressBand]atomic.Bool
}

// TestStressValueIntegrity is the shared-key value-integrity stress of the
// stored-value lifecycle: four pipelining connections PUT, GET and DEL 64
// shared keys with values from 0 B to 8 KiB — every size class of the
// recycled arrays, and past the 2048 B where responses used to be spliced
// from stored bytes — and every GET body must be one whole value some PUT
// wrote for that key. A value names its key, writer, sequence number and
// length and carries a checksum; one too short for that is a pattern of its
// key and length, accepted if some PUT sent that length for that key. A band
// of further keys is only ever overwritten: once a PUT of one has been
// answered, every later GET of it must find a value.
func TestStressValueIntegrity(t *testing.T) {
	windows := 1000
	if testing.Short() {
		windows = 100
	}
	for _, scheme := range []string{recordmgr.SchemeDEBRA, recordmgr.SchemeEBR, recordmgr.SchemeQSBR, recordmgr.SchemeHP} {
		t.Run(scheme, func(t *testing.T) {
			srv, addr := startServer(t, kvservice.Config{
				Scheme: scheme, Partitions: 2, MaxConns: stressConns, UsePool: true,
			})
			defer srv.Close()
			var log valueLog
			var wg sync.WaitGroup
			for w := 0; w < stressConns; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if err := stressConn(addr, w, windows, &log); err != nil {
						t.Errorf("conn %d: %v", w, err)
					}
				}(w)
			}
			wg.Wait()
			srv.Close()
			if m := srv.Stats().Manager; m.Retired != m.Freed || m.Freed == 0 {
				t.Fatalf("after Close: retired %d, freed %d", m.Retired, m.Freed)
			}
		})
	}
}

// stressConn is one pipelining connection of TestStressValueIntegrity:
// windows writes of stressWindow requests, each answered in full before the
// next.
func stressConn(addr net.Addr, w, windows int, log *valueLog) error {
	conn, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		return err
	}
	defer conn.Close()
	rng := rand.New(rand.NewSource(int64(w) + 1))
	var (
		batch, val, buf []byte
		ops             [stressWindow]kvwire.Op
		keys            [stressWindow]int64
		bound           [stressWindow]bool // keys[j] is a band key with a PUT answered before this window was sent
		seq             uint32
	)
	for i := 0; i < windows; i++ {
		batch = batch[:0]
		for j := range ops {
			keys[j] = rng.Int63n(stressKeys + stressBand)
			band := keys[j] >= stressKeys
			bound[j] = band && log.bound[keys[j]-stressKeys].Load()
			switch r := rng.Intn(10); {
			case r < 4 || band && r >= 8:
				seq++
				n := rng.Intn(1<<rng.Intn(maxValueShift+1) + 1)
				val = appendValue(val[:0], keys[j], w, seq, n)
				if n < valHeader {
					log.short[keys[j]][n].Store(true)
				}
				log.issued[w].Store(seq)
				ops[j], batch = kvwire.OpPut, kvwire.AppendPut(batch, keys[j], val)
			case r < 8:
				ops[j], batch = kvwire.OpGet, kvwire.AppendGet(batch, keys[j])
			default:
				ops[j], batch = kvwire.OpDel, kvwire.AppendDel(batch, keys[j])
			}
		}
		if _, err := conn.Write(batch); err != nil {
			return err
		}
		for j, op := range ops {
			payload, err := kvwire.ReadFrame(conn, buf)
			if err != nil {
				return err
			}
			buf = payload
			resp, err := kvwire.DecodeResponse(payload)
			if err != nil {
				return err
			}
			switch {
			case op == kvwire.OpGet && resp.Status == kvwire.StatusOK:
				if err := log.check(resp.Body, keys[j]); err != nil {
					return fmt.Errorf("GET %d: %w", keys[j], err)
				}
			case op == kvwire.OpGet && resp.Status == kvwire.StatusNotFound:
				if bound[j] {
					return fmt.Errorf("GET %d: NOT_FOUND for a key that is only ever overwritten, after a PUT of it was answered", keys[j])
				}
			case op != kvwire.OpGet && resp.Status == kvwire.StatusOK && len(resp.Body) == 1:
				if op == kvwire.OpPut && keys[j] >= stressKeys {
					log.bound[keys[j]-stressKeys].Store(true)
				}
			default:
				return fmt.Errorf("%v %d: status %v, %d-byte body", op, keys[j], resp.Status, len(resp.Body))
			}
		}
	}
	return nil
}

// appendValue appends writer w's value number seq for key, n bytes long.
func appendValue(dst []byte, key int64, w int, seq uint32, n int) []byte {
	if n < valHeader {
		for i := 0; i < n; i++ {
			dst = append(dst, shortByte(key, n, i))
		}
		return dst
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(key))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w))
	dst = binary.LittleEndian.AppendUint32(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, 0, 0, 0, 0) // checksum, below
	for i := valHeader; i < n; i++ {
		dst = append(dst, byte(seq)*7+byte(i))
	}
	v := dst[len(dst)-n:]
	binary.LittleEndian.PutUint32(v[20:], checksum(v))
	return dst
}

// shortByte is byte i of every n-byte value of key, for n < valHeader.
func shortByte(key int64, n, i int) byte { return byte(key)*31 + byte(n)*7 + byte(i) }

// checksum is the CRC of a self-describing value, its checksum field left
// out.
func checksum(v []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(v[:20]), crc32.IEEETable, v[valHeader:])
}

// check reports why v is not one whole value some PUT sent for key.
func (l *valueLog) check(v []byte, key int64) error {
	if len(v) < valHeader {
		for i := range v {
			if v[i] != shortByte(key, len(v), i) {
				return fmt.Errorf("%d-byte value is not the pattern of its key", len(v))
			}
		}
		if !l.short[key][len(v)].Load() {
			return fmt.Errorf("no %d-byte value was sent for this key", len(v))
		}
		return nil
	}
	k := int64(binary.LittleEndian.Uint64(v))
	w := binary.LittleEndian.Uint32(v[8:])
	seq := binary.LittleEndian.Uint32(v[12:])
	n := binary.LittleEndian.Uint32(v[16:])
	switch {
	case k != key:
		return fmt.Errorf("value of key %d", k)
	case int(n) != len(v):
		return fmt.Errorf("%d-byte body describes a %d-byte value", len(v), n)
	case binary.LittleEndian.Uint32(v[20:]) != checksum(v):
		return fmt.Errorf("%d-byte value fails its checksum (writer %d, seq %d)", n, w, seq)
	case w >= stressConns || seq == 0 || seq > l.issued[w].Load():
		return fmt.Errorf("writer %d never sent value %d", w, seq)
	}
	return nil
}

// Package kvwire implements the wire protocol spoken between cmd/kvserver
// and cmd/kvload: a minimal length-prefixed binary framing with four request
// opcodes (GET, PUT, DEL, STATS) and a one-byte response status. The format
// is specified normatively in docs/PROTOCOL.md; this package is the single
// codec both sides share, so the spec, the server and the load generator
// cannot drift apart.
//
// Framing: every message — request or response — is one frame:
//
//	uint32 big-endian payload length | payload (length bytes)
//
// The length covers the payload only (not the 4 length bytes itself) and is
// bounded by MaxPayload; a peer announcing a larger frame is violating the
// protocol and the connection must be dropped (ReadFrame returns
// ErrFrameTooLarge without consuming the payload). A zero-length frame is
// likewise a protocol error: every payload starts with at least an opcode or
// status byte.
//
// The Append* encoders write complete frames onto a caller-owned byte slice
// (append-style, so steady-state encoding performs no allocation), and the
// Decode* functions parse a payload in place — returned value slices alias
// the input buffer and are only valid until the buffer is reused.
package kvwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxPayload bounds a frame's payload: 1 MiB, far above any key+value this
// protocol carries, small enough that a malicious or corrupt length prefix
// cannot make the server buffer gigabytes.
const MaxPayload = 1 << 20

// MaxValueLen bounds a PUT value so the whole request fits comfortably in
// one frame (opcode + key + value <= MaxPayload).
const MaxValueLen = MaxPayload - reqHeaderLen

// Op is a request opcode (the first payload byte of a request frame).
type Op byte

// Request opcodes.
const (
	// OpGet looks a key up: payload is opcode + 8-byte key.
	OpGet Op = 0x01
	// OpPut upserts a key: payload is opcode + 8-byte key + value bytes
	// (the rest of the frame, possibly empty).
	OpPut Op = 0x02
	// OpDel removes a key: payload is opcode + 8-byte key.
	OpDel Op = 0x03
	// OpStats requests the server's statistics snapshot: payload is the
	// opcode alone.
	OpStats Op = 0x04
)

// String names the opcode for diagnostics.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDel:
		return "DEL"
	case OpStats:
		return "STATS"
	default:
		return fmt.Sprintf("Op(0x%02x)", byte(o))
	}
}

// Status is a response status (the first payload byte of a response frame).
type Status byte

// Response statuses.
const (
	// StatusOK: the operation succeeded. GET carries the value bytes, PUT
	// carries one byte (1 = an existing binding was replaced, 0 = inserted
	// fresh), DEL carries one byte (1 = the key existed and was removed,
	// 0 = it was absent), STATS carries a JSON document (docs/PROTOCOL.md).
	StatusOK Status = 0x00
	// StatusNotFound: GET on an absent key; empty body.
	StatusNotFound Status = 0x01
	// StatusBusy: the server is overloaded and fast-failed the request
	// without executing it (no handler slot within the configured bound);
	// empty body. Unlike StatusErr the framing is intact and the connection
	// stays open — the client should back off and retry.
	StatusBusy Status = 0x02
	// StatusErr: the request was malformed or could not be served; the body
	// is a UTF-8 diagnostic message. The server drops the connection after
	// sending it, since framing can no longer be trusted.
	StatusErr Status = 0x7f
)

// String names the status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusBusy:
		return "ERR_BUSY"
	case StatusErr:
		return "ERR"
	default:
		return fmt.Sprintf("Status(0x%02x)", byte(s))
	}
}

// Protocol violation errors.
var (
	// ErrFrameTooLarge reports a length prefix above MaxPayload (or a PUT
	// value above MaxValueLen on the encode side).
	ErrFrameTooLarge = errors.New("kvwire: frame exceeds MaxPayload")
	// ErrEmptyFrame reports a zero-length frame (payloads always carry at
	// least an opcode or status byte).
	ErrEmptyFrame = errors.New("kvwire: empty frame")
	// ErrTruncated reports a payload shorter than its opcode demands.
	ErrTruncated = errors.New("kvwire: truncated payload")
	// ErrTrailingBytes reports a payload longer than its opcode allows
	// (fixed-size requests with extra bytes after the last field).
	ErrTrailingBytes = errors.New("kvwire: trailing bytes after request")
	// ErrUnknownOp reports an unrecognised request opcode.
	ErrUnknownOp = errors.New("kvwire: unknown opcode")
)

// lenPrefix is the frame length prefix size; reqHeaderLen is opcode + key.
const (
	lenPrefix    = 4
	reqHeaderLen = 1 + 8
)

// Request is a decoded request payload. Value aliases the decode buffer.
type Request struct {
	Op    Op
	Key   int64
	Value []byte // PUT only
}

// Response is a decoded response payload. Body aliases the decode buffer:
// the value for GET, the replaced/deleted flag byte for PUT/DEL, the JSON
// document for STATS, the diagnostic message for StatusErr.
type Response struct {
	Status Status
	Body   []byte
}

// appendPrefix reserves a frame's length prefix, returning the extended
// slice and the prefix offset for patchLen.
func appendPrefix(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0), len(dst)
}

// patchLen back-fills the length prefix at off once the payload is written.
func patchLen(dst []byte, off int) []byte {
	binary.BigEndian.PutUint32(dst[off:], uint32(len(dst)-off-lenPrefix))
	return dst
}

// AppendGet appends a complete GET request frame for key.
func AppendGet(dst []byte, key int64) []byte {
	dst, off := appendPrefix(dst)
	dst = append(dst, byte(OpGet))
	dst = binary.BigEndian.AppendUint64(dst, uint64(key))
	return patchLen(dst, off)
}

// AppendPut appends a complete PUT request frame for key/value. Values
// longer than MaxValueLen cannot be framed; AppendPut panics, since the
// bound is a static protocol constant the caller must respect.
func AppendPut(dst []byte, key int64, value []byte) []byte {
	if len(value) > MaxValueLen {
		panic(ErrFrameTooLarge)
	}
	dst, off := appendPrefix(dst)
	dst = append(dst, byte(OpPut))
	dst = binary.BigEndian.AppendUint64(dst, uint64(key))
	dst = append(dst, value...)
	return patchLen(dst, off)
}

// AppendDel appends a complete DEL request frame for key.
func AppendDel(dst []byte, key int64) []byte {
	dst, off := appendPrefix(dst)
	dst = append(dst, byte(OpDel))
	dst = binary.BigEndian.AppendUint64(dst, uint64(key))
	return patchLen(dst, off)
}

// AppendStats appends a complete STATS request frame.
func AppendStats(dst []byte) []byte {
	dst, off := appendPrefix(dst)
	dst = append(dst, byte(OpStats))
	return patchLen(dst, off)
}

// AppendResponse appends a complete response frame with the given status and
// body. Bodies longer than MaxPayload-1 cannot be framed; AppendResponse
// panics, as for AppendPut.
func AppendResponse(dst []byte, status Status, body []byte) []byte {
	if len(body) > MaxPayload-1 {
		panic(ErrFrameTooLarge)
	}
	dst, off := appendPrefix(dst)
	dst = append(dst, byte(status))
	dst = append(dst, body...)
	return patchLen(dst, off)
}

// ReadFrame reads one frame from r and returns its payload, reusing buf when
// it is large enough. It returns ErrFrameTooLarge for a length prefix above
// MaxPayload and ErrEmptyFrame for a zero length — both before consuming any
// payload, so the caller can close the connection knowing nothing else was
// read. io.EOF is returned untouched when the stream ends cleanly between
// frames (a partial prefix or payload becomes io.ErrUnexpectedEOF).
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < lenPrefix {
		// The prefix is staged in the caller's buffer (grown once here when
		// too small) rather than a local array: a local escapes through the
		// io.Reader interface calls and would cost an allocation per frame.
		buf = make([]byte, 64)
	}
	prefix := buf[:lenPrefix]
	if _, err := io.ReadFull(r, prefix[:1]); err != nil {
		return nil, err // clean EOF between frames stays io.EOF
	}
	if _, err := io.ReadFull(r, prefix[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n > MaxPayload {
		return nil, ErrFrameTooLarge
	}
	if n == 0 {
		return nil, ErrEmptyFrame
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// DecodeRequest parses a request payload. The returned Value aliases
// payload.
func DecodeRequest(payload []byte) (Request, error) {
	if len(payload) == 0 {
		return Request{}, ErrEmptyFrame
	}
	op := Op(payload[0])
	rest := payload[1:]
	switch op {
	case OpGet, OpDel:
		if len(rest) < 8 {
			return Request{}, ErrTruncated
		}
		if len(rest) > 8 {
			return Request{}, ErrTrailingBytes
		}
		return Request{Op: op, Key: int64(binary.BigEndian.Uint64(rest))}, nil
	case OpPut:
		if len(rest) < 8 {
			return Request{}, ErrTruncated
		}
		return Request{Op: op, Key: int64(binary.BigEndian.Uint64(rest)), Value: rest[8:]}, nil
	case OpStats:
		if len(rest) > 0 {
			return Request{}, ErrTrailingBytes
		}
		return Request{Op: op}, nil
	default:
		return Request{}, fmt.Errorf("%w: 0x%02x", ErrUnknownOp, payload[0])
	}
}

// DecodeRequests decodes every complete request frame at the front of buf,
// appending the decoded requests to dst (append-style: steady-state batch
// decoding performs no allocation once dst has grown to the pipeline depth).
// It stops at the first incomplete frame, after max requests (max <= 0 means
// no cap), or at the first protocol error. It returns the extended slice, the
// number of bytes consumed through the last cleanly decoded frame, and the
// error, if any. A trailing partial frame is not an error — the caller reads
// more bytes and calls again. Decoded Values alias buf and are only valid
// until buf is overwritten.
//
// On error the returned requests and consumed count cover the frames decoded
// before the bad one, so a server can still execute and flush those responses
// before dropping the connection (docs/PROTOCOL.md, "Pipelining").
func DecodeRequests(dst []Request, buf []byte, max int) ([]Request, int, error) {
	consumed := 0
	for max <= 0 || len(dst) < max {
		rest := buf[consumed:]
		if len(rest) < lenPrefix {
			break // partial length prefix: wait for more bytes
		}
		n := binary.BigEndian.Uint32(rest)
		if n > MaxPayload {
			return dst, consumed, ErrFrameTooLarge
		}
		if n == 0 {
			return dst, consumed, ErrEmptyFrame
		}
		if uint32(len(rest)-lenPrefix) < n {
			break // partial payload: wait for more bytes
		}
		req, err := DecodeRequest(rest[lenPrefix : lenPrefix+int(n)])
		if err != nil {
			return dst, consumed, err
		}
		dst = append(dst, req)
		consumed += lenPrefix + int(n)
	}
	return dst, consumed, nil
}

// DecodeResponse parses a response payload. The returned Body aliases
// payload. Any status byte is accepted (forward compatibility: new statuses
// must not break old clients' framing); interpreting the body is the
// caller's job per docs/PROTOCOL.md.
func DecodeResponse(payload []byte) (Response, error) {
	if len(payload) == 0 {
		return Response{}, ErrEmptyFrame
	}
	return Response{Status: Status(payload[0]), Body: payload[1:]}, nil
}

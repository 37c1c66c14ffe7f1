package kvwire

import "testing"

// The encode and batch-decode primitives sit on the server's per-request hot
// path; these tests pin their steady state at zero allocations once the
// caller reuses its buffers, which is what internal/kvservice does.

func TestAppendResponseAllocs(t *testing.T) {
	body := []byte("0123456789abcdef")
	dst := AppendResponse(nil, StatusOK, body)
	allocs := testing.AllocsPerRun(1000, func() {
		dst = AppendResponse(dst[:0], StatusOK, body)
	})
	if allocs != 0 {
		t.Fatalf("AppendResponse into a reused buffer allocates %.1f/op, want 0", allocs)
	}
}

func TestDecodeRequestsAllocs(t *testing.T) {
	var stream []byte
	for i := int64(0); i < 8; i++ {
		stream = AppendPut(stream, i, []byte("0123456789abcdef"))
	}
	reqs, _, err := DecodeRequests(nil, stream, 0)
	if err != nil || len(reqs) != 8 {
		t.Fatalf("DecodeRequests: %d requests, err=%v", len(reqs), err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		reqs, _, err = DecodeRequests(reqs[:0], stream, 0)
		if err != nil {
			t.Fatalf("DecodeRequests: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeRequests into a reused slice allocates %.1f/op, want 0", allocs)
	}
}

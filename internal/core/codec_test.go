package core

import (
	"math"
	"testing"
)

// encodeRequest is AppendRequest into a fresh buffer.
func encodeRequest(reqID uint64, state []float64) []byte {
	return AppendRequest(nil, reqID, state)
}

func TestWireFormatRoundTrip(t *testing.T) {
	state := []float64{0.1, -2.5, math.Pi, 0}
	buf := encodeRequest(42, state)
	id, got, err := DecodeRequestInto(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || len(got) != len(state) {
		t.Fatalf("id=%d len=%d", id, len(got))
	}
	for i := range state {
		if got[i] != state[i] {
			t.Fatalf("state[%d] = %v", i, got[i])
		}
	}
	rbuf := EncodeResponse(42, -0.75)
	rid, action, err := DecodeResponse(rbuf)
	if err != nil || rid != 42 || action != -0.75 {
		t.Fatalf("response round trip: %v %v %v", rid, action, err)
	}
	// Trailing bytes after the base response (the serve-layer trailer) must
	// be transparent.
	rid, action, err = DecodeResponse(append(rbuf, 1, 2, 3, 4, 5, 6, 7, 8))
	if err != nil || rid != 42 || action != -0.75 {
		t.Fatalf("response with trailer: %v %v %v", rid, action, err)
	}
}

func TestDecodeRequestRejectsMalformed(t *testing.T) {
	if _, _, err := DecodeRequestInto([]byte{1, 2, 3}, nil); err == nil {
		t.Fatal("short request accepted")
	}
	// Claims a huge dimension.
	buf := encodeRequest(1, make([]float64, 4))
	buf[8] = 0xFF
	buf[9] = 0xFF
	buf[10] = 0xFF
	buf[11] = 0x7F
	if _, _, err := DecodeRequestInto(buf, nil); err == nil {
		t.Fatal("oversized dim accepted")
	}
	// Truncated payload.
	buf2 := encodeRequest(1, make([]float64, 4))[:20]
	if _, _, err := DecodeRequestInto(buf2, nil); err == nil {
		t.Fatal("truncated request accepted")
	}
	if _, _, err := DecodeResponse([]byte{1}); err == nil {
		t.Fatal("short response accepted")
	}
}

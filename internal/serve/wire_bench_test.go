package serve

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// nopConn is a net.Conn that swallows writes — the sink for hot-path
// benchmarks that must not measure a real socket.
type nopConn struct{}

func (nopConn) Read([]byte) (int, error)         { return 0, nil }
func (nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

func benchState(dim int) []float64 {
	state := make([]float64, dim)
	for i := range state {
		state[i] = float64(i) * 0.25
	}
	return state
}

// BenchmarkWireEncode measures the append-style request+response encoders
// into reused arenas — the framed stream write path.
func BenchmarkWireEncode(b *testing.B) {
	state := benchState(core.DefaultConfig().StateDim())
	var reqBuf, respBuf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reqBuf = appendFlowRequest(reqBuf[:0], uint64(i), state, 42, true)
		respBuf = appendServedFrame(respBuf[:0], uint64(i), 0.5, FlagFallback, 7)
	}
	if len(reqBuf) == 0 || len(respBuf) == 0 {
		b.Fatal("encoders produced nothing")
	}
}

// BenchmarkWireDecode measures the reusable-buffer decoders — the framed
// stream read path: frame extraction, request decode into a reused state
// slice, flow-trailer read, response decode.
func BenchmarkWireDecode(b *testing.B) {
	state := benchState(core.DefaultConfig().StateDim())
	reqFrame := appendFlowRequest(nil, 99, state, 42, true)
	respFrame := appendServedFrame(nil, 99, 0.5, 0, 7)
	stream := append(append([]byte{}, reqFrame...), respFrame...)

	reader := bytes.NewReader(stream)
	br := bufio.NewReaderSize(reader, 1<<10)
	var rbuf []byte
	dst := make([]float64, 0, len(state))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reader.Reset(stream)
		br.Reset(reader)

		payload, err := readFrameInto(br, &rbuf)
		if err != nil {
			b.Fatal(err)
		}
		_, decoded, err := core.DecodeRequestInto(payload, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := requestFlow(payload, len(decoded)); !ok {
			b.Fatal("flow trailer lost")
		}
		payload, err = readFrameInto(br, &rbuf)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := decodeServedResponse(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireCodecZeroAlloc pins the post-zero-copy allocation counts of the
// wire codec at exactly zero per op with reused buffers. A regression here
// is a regression in the serving hot path: fail loudly, don't benchmark
// quietly.
func TestWireCodecZeroAlloc(t *testing.T) {
	state := benchState(core.DefaultConfig().StateDim())
	var reqBuf, respBuf []byte
	// Warm the arenas so growth is excluded (that is what steady state means).
	reqBuf = appendFlowRequest(reqBuf[:0], 1, state, 42, true)
	respBuf = appendServedFrame(respBuf[:0], 1, 0.5, 0, 7)

	if n := testing.AllocsPerRun(200, func() {
		reqBuf = appendFlowRequest(reqBuf[:0], 2, state, 42, true)
	}); n != 0 {
		t.Errorf("appendFlowRequest: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		respBuf = appendServedFrame(respBuf[:0], 2, 0.5, FlagFallback, 7)
	}); n != 0 {
		t.Errorf("appendServedFrame: %v allocs/op, want 0", n)
	}

	reqPayload := reqBuf[4:] // strip the length prefix
	dst := make([]float64, 0, len(state))
	if n := testing.AllocsPerRun(200, func() {
		_, decoded, err := core.DecodeRequestInto(reqPayload, dst[:0])
		if err != nil || len(decoded) != len(state) {
			t.Fatal("decode failed")
		}
		if _, ok := requestFlow(reqPayload, len(decoded)); !ok {
			t.Fatal("flow trailer lost")
		}
	}); n != 0 {
		t.Errorf("DecodeRequestInto+requestFlow: %v allocs/op, want 0", n)
	}

	respPayload := respBuf[4:]
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := decodeServedResponse(respPayload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decodeServedResponse: %v allocs/op, want 0", n)
	}

	reader := bytes.NewReader(reqBuf)
	br := bufio.NewReaderSize(reader, 1<<10)
	var rbuf []byte
	if _, err := readFrameInto(br, &rbuf); err != nil { // warm rbuf
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		reader.Reset(reqBuf)
		br.Reset(reader)
		if _, err := readFrameInto(br, &rbuf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("readFrameInto: %v allocs/op, want 0", n)
	}
}

// TestStreamHotPathZeroAlloc pins the whole server-side framed request
// path — pooled request, decode into a reused state buffer, flow-hash
// admission, synchronous evaluation, response append into the connection
// arena, flush — at zero allocations per request in steady state.
func TestStreamHotPathZeroAlloc(t *testing.T) {
	cfg := core.DefaultConfig()
	svc := core.NewService(cfg, constPolicy{0.5})
	svc.BatchWindow = 0 // synchronous path: deterministic, single-goroutine
	srv := NewServer(svc, cfg, Options{Shards: 1, QueueDepth: 8192, Deadline: time.Minute})
	defer srv.Close()

	sc := &streamConn{conn: nopConn{}, seed: 1}
	payload := appendFlowRequest(nil, 7, benchState(cfg.StateDim()), 42, true)[4:]

	// testing.AllocsPerRun measures at GOMAXPROCS 1, where the sweeper does
	// not run until this goroutine yields, so every measured request takes a
	// fresh object from the pool. Warm up the same way: with more Ps the
	// sweeper recycles a handful of objects and the pool stays too small.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Warm the pools: request objects, batch buffers, arenas, dirty lists.
	for i := 0; i < 1024; i++ {
		srv.handlePayload(payload, sc, nil, nil)
	}
	// Let the sweeper drain so the pool holds every warmed request object.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.sweeps[0]) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweeper did not drain")
		}
		time.Sleep(time.Millisecond)
	}

	if n := testing.AllocsPerRun(500, func() {
		srv.handlePayload(payload, sc, nil, nil)
	}); n != 0 {
		t.Errorf("stream hot path: %v allocs/op, want 0", n)
	}
}

// BenchmarkStreamServePath is the companion benchmark: ns/op and allocs/op
// for the full server-side request path on the synchronous evaluator.
func BenchmarkStreamServePath(b *testing.B) {
	cfg := core.DefaultConfig()
	svc := core.NewService(cfg, constPolicy{0.5})
	svc.BatchWindow = 0
	srv := NewServer(svc, cfg, Options{Shards: 1, QueueDepth: 1 << 16, Deadline: time.Minute})
	defer srv.Close()

	sc := &streamConn{conn: nopConn{}, seed: 1}
	payload := appendFlowRequest(nil, 7, benchState(cfg.StateDim()), 42, true)[4:]
	for i := 0; i < 1024; i++ {
		srv.handlePayload(payload, sc, nil, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.handlePayload(payload, sc, nil, nil)
	}
}

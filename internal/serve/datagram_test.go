package serve

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// newDatagramServer builds a server over policy listening on network (udp
// or unixgram), returning it with its bound address.
func newDatagramServer(t *testing.T, network string, policy core.Policy, opts Options, reg *telemetry.Registry) (*Server, string) {
	t.Helper()
	cfg := core.DefaultConfig()
	svc := core.NewService(cfg, policy)
	svc.BatchWindow = 2 * time.Millisecond
	srv := NewServer(svc, cfg, opts)
	if reg != nil {
		srv.Instrument(reg)
	}
	t.Cleanup(func() { srv.Close() })
	address := "127.0.0.1:0"
	if network == "unixgram" {
		address = t.TempDir() + "/serve.sock"
	}
	addr, err := srv.Listen(network, address)
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr.String()
}

// dialDatagram connects a bare-codec sender. A unixgram sender binds its
// own socket so the server has a return address.
func dialDatagram(t *testing.T, network, addr string) net.Conn {
	t.Helper()
	var conn net.Conn
	var err error
	if network == "unixgram" {
		conn, err = net.DialUnix(network,
			&net.UnixAddr{Name: t.TempDir() + "/client.sock", Net: network},
			&net.UnixAddr{Name: addr, Net: network})
	} else {
		conn, err = net.Dial(network, addr)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// readDatagramReply reads and decodes one served response within timeout.
func readDatagramReply(conn net.Conn, timeout time.Duration) (uint64, Result, error) {
	buf := make([]byte, 64)
	conn.SetReadDeadline(time.Now().Add(timeout))
	n, err := conn.Read(buf)
	if err != nil {
		return 0, Result{}, err
	}
	return decodeServedResponse(buf[:n])
}

// datagramInfer sends one bare-codec request and waits for its answer.
func datagramInfer(conn net.Conn, reqID uint64, state []float64) (Result, error) {
	if _, err := conn.Write(core.AppendRequest(nil, reqID, state)); err != nil {
		return Result{}, err
	}
	id, res, err := readDatagramReply(conn, 5*time.Second)
	if err == nil && id != reqID {
		return Result{}, fmt.Errorf("reply for request %d, want %d", id, reqID)
	}
	return res, err
}

var datagramNetworks = []string{"udp", "unixgram"}

// TestServeDatagramTransport: a bare-codec sender with no framing gets the
// policy's action back, stamped with no flags and policy version 1.
func TestServeDatagramTransport(t *testing.T) {
	for _, network := range datagramNetworks {
		t.Run(network, func(t *testing.T) {
			_, addr := newDatagramServer(t, network, constPolicy{0.75}, Options{}, nil)
			conn := dialDatagram(t, network, addr)
			res, err := datagramInfer(conn, 9, make([]float64, core.DefaultConfig().StateDim()))
			if err != nil {
				t.Fatal(err)
			}
			if res.Action != 0.75 || res.Flags != 0 || res.Version != 1 {
				t.Fatalf("res = %+v", res)
			}
		})
	}
}

// TestServeDatagramConcurrentClients drives one shard from many datagram
// senders at once: every answer must be the policy's, and requests from
// different senders must share batches.
func TestServeDatagramConcurrentClients(t *testing.T) {
	const clients, perClient = 16, 8
	for _, network := range datagramNetworks {
		t.Run(network, func(t *testing.T) {
			srv, addr := newDatagramServer(t, network, constPolicy{0.25},
				Options{Shards: 1, Deadline: 5 * time.Second}, nil)
			conns := make([]net.Conn, clients)
			for c := range conns {
				conns[c] = dialDatagram(t, network, addr)
			}
			var wg sync.WaitGroup
			for _, conn := range conns {
				wg.Add(1)
				go func() {
					defer wg.Done()
					state := make([]float64, core.DefaultConfig().StateDim())
					for i := 0; i < perClient; i++ {
						res, err := datagramInfer(conn, uint64(i+1), state)
						if err != nil {
							t.Error(err)
							return
						}
						if res.Action != 0.25 || res.Flags != 0 {
							t.Errorf("res = %+v", res)
							return
						}
					}
				}()
			}
			wg.Wait()
			requests, batches := srv.Stats()
			if requests != clients*perClient {
				t.Fatalf("served %d requests, want %d", requests, clients*perClient)
			}
			if batches >= requests {
				t.Fatalf("no batching: %d batches for %d requests", batches, requests)
			}
		})
	}
}

// TestServeDatagramMalformed: oversized-dimension, truncated and garbage
// datagrams are counted as read errors and dropped, and the endpoint then
// still answers a valid request.
func TestServeDatagramMalformed(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, addr := newDatagramServer(t, "udp", constPolicy{0.5}, Options{}, reg)
	conn := dialDatagram(t, "udp", addr)

	over := core.AppendRequest(nil, 7, make([]float64, 4))
	over[8], over[9], over[10], over[11] = 0xFF, 0xFF, 0xFF, 0x7F
	trunc := core.AppendRequest(nil, 8, make([]float64, 8))[:24]
	for _, b := range [][]byte{over, trunc, {1, 2}} {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	res, err := datagramInfer(conn, 9, make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 0.5 {
		t.Fatalf("Infer after malformed datagrams = %+v", res)
	}
	// One reader handles the socket in arrival order, so the three bad
	// datagrams were counted before the valid one was answered.
	if m, _ := reg.Snapshot().Get("serve_read_errors_total"); m.Count != 3 {
		t.Fatalf("read errors %d, want 3", m.Count)
	}
}

// TestServeDatagramShed floods a 1-shard, 1-slot server behind a slow
// policy: overflow datagrams are answered at once with a flagged fallback
// and counted as shed, never queued without bound.
func TestServeDatagramShed(t *testing.T) {
	reg := telemetry.NewRegistry()
	policy := &slowPolicy{delay: 20 * time.Millisecond, v: 0.3}
	_, addr := newDatagramServer(t, "udp", policy,
		Options{Shards: 1, QueueDepth: 1, Deadline: time.Second}, reg)
	conn := dialDatagram(t, "udp", addr)

	const n = 200
	req := core.AppendRequest(nil, 1, make([]float64, 4))
	for i := 0; i < n; i++ {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	shed := 0
	for i := 0; i < n && shed == 0; i++ {
		_, res, err := readDatagramReply(conn, 5*time.Second)
		if err != nil {
			t.Fatalf("after %d replies: %v", i, err)
		}
		if res.Shed() {
			if !res.Fallback() {
				t.Fatalf("shed reply without fallback flag: %+v", res)
			}
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("no shed reply under flood")
	}
	if m, _ := reg.Snapshot().Get("serve_shed_total"); m.Count == 0 {
		t.Fatal("serve_shed_total = 0 under flood")
	}
}

// TestServeDatagramShutdownInFlight: Shutdown with a slow-policy datagram
// request in flight returns in bounded time, and the request is answered
// before the socket closes.
func TestServeDatagramShutdownInFlight(t *testing.T) {
	reg := telemetry.NewRegistry()
	policy := &slowPolicy{delay: 100 * time.Millisecond, v: 0.5}
	srv, addr := newDatagramServer(t, "udp", policy, Options{Deadline: 5 * time.Second}, reg)
	conn := dialDatagram(t, "udp", addr)

	if _, err := conn.Write(core.AppendRequest(nil, 3, make([]float64, 4))); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if m, _ := reg.Snapshot().Get("serve_requests_total"); m.Count == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
	}

	ctx := contextWithTimeout(t, 10*time.Second)
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	id, res, err := readDatagramReply(conn, 10*time.Second)
	if err != nil {
		t.Fatalf("in-flight request not answered: %v", err)
	}
	if id != 3 || res.Action != 0.5 || res.Flags != 0 {
		t.Fatalf("reply id=%d res=%+v", id, res)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown hung with a datagram request in flight")
	}
}

package serve

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// silentListener accepts stream connections and never answers. Each
// connection's first request frame header is reported on got once read.
func silentListener(t *testing.T) (addr string, got <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	ch := make(chan struct{}, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err == nil {
					ch <- struct{}{}
				}
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String(), ch
}

// TestClientInferTimeout: a server that never answers must produce
// ErrInferTimeout, not a caller parked forever.
func TestClientInferTimeout(t *testing.T) {
	addr, _ := silentListener(t)
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 50 * time.Millisecond

	start := time.Now()
	if _, err := client.Infer(make([]float64, 4)); !errors.Is(err, ErrInferTimeout) {
		t.Fatalf("err = %v, want ErrInferTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestClientCloseFailsOutstanding: closing the client with a call in flight
// must surface ErrClientClosed, never a zero action with a nil error, and
// later calls fail the same way.
func TestClientCloseFailsOutstanding(t *testing.T) {
	addr, got := silentListener(t)
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = 0 // wait forever: only the close may release the call

	res := make(chan error, 1)
	go func() {
		_, err := client.Infer(make([]float64, 4))
		res <- err
	}()
	select {
	case <-got: // the request is on the wire, so the call is registered
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the server")
	}
	client.Close()
	select {
	case err := <-res:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("err = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Infer still blocked after Close")
	}
	if _, err := client.Infer(make([]float64, 4)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after Close: err = %v, want ErrClientClosed", err)
	}
}

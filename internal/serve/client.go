package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// DefaultInferTimeout bounds Client.Infer when the caller does not choose a
// timeout: an unanswered request must surface as an error, not a goroutine
// parked forever.
const DefaultInferTimeout = 5 * time.Second

// ErrInferTimeout is returned by Client.Infer when no response arrives
// within the client's Timeout.
var ErrInferTimeout = errors.New("serve: inference request timed out")

// ErrClientClosed is returned by Client.Infer when the connection closes
// (locally or by the peer) while the call is outstanding.
var ErrClientClosed = errors.New("serve: connection closed with inference call outstanding")

// Client talks to a serve.Server over a stream transport (tcp or unix)
// with length-prefixed framing. It is safe for concurrent use: calls are
// pipelined over one connection and matched to responses by request ID,
// which is how a sender process multiplexes many flows over one socket.
// Requests issued through InferFlow carry the flow ID on the wire, so the
// server keeps each flow's requests ordered on one shard even when the
// flow's traffic spreads over several connections.
type Client struct {
	conn net.Conn

	// Timeout bounds each Infer call (default DefaultInferTimeout;
	// 0 waits forever). Adjust before issuing calls.
	Timeout time.Duration

	wmu  sync.Mutex // serializes request frames
	wbuf []byte     // reusable request frame buffer (guarded by wmu)

	chPool sync.Pool // of chan clientResult, cap 1

	mu      sync.Mutex
	next    uint64
	calls   map[uint64]chan clientResult
	dead    error // sticky read-loop exit cause
	started bool
}

type clientResult struct {
	res Result
	err error
}

// Dial connects to a serve.Server stream endpoint.
func Dial(network, address string) (*Client, error) {
	switch network {
	case "tcp", "tcp4", "tcp6", "unix":
	default:
		return nil, fmt.Errorf("serve: dial: unsupported network %q (stream transports only)", network)
	}
	conn, err := net.Dial(network, address)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s %s: %w", network, address, err)
	}
	return &Client{conn: conn, Timeout: DefaultInferTimeout,
		calls: make(map[uint64]chan clientResult)}, nil
}

func (c *Client) getCh() chan clientResult {
	if v := c.chPool.Get(); v != nil {
		return v.(chan clientResult)
	}
	return make(chan clientResult, 1)
}

// putCh recycles a result channel. Callers must guarantee the channel is
// empty and unreachable: the call entry was deleted from c.calls under mu
// (the read loop only sends while holding mu), and any buffered value was
// drained.
func (c *Client) putCh(ch chan clientResult) { c.chPool.Put(ch) }

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 16<<10)
	var rbuf []byte
	for {
		payload, err := readFrameInto(br, &rbuf)
		if err != nil {
			c.mu.Lock()
			c.dead = ErrClientClosed
			for id, ch := range c.calls {
				ch <- clientResult{err: ErrClientClosed}
				delete(c.calls, id)
			}
			c.mu.Unlock()
			return
		}
		reqID, res, err := decodeServedResponse(payload)
		if err != nil {
			continue // malformed response payload: skip, stream stays framed
		}
		c.mu.Lock()
		if ch, ok := c.calls[reqID]; ok {
			ch <- clientResult{res: res}
			delete(c.calls, reqID)
		}
		c.mu.Unlock()
	}
}

// Infer sends one request and waits for its answer, at most c.Timeout. The
// returned Result says whether the action came from the policy or the
// fallback law, and which policy version stamped it.
func (c *Client) Infer(state []float64) (Result, error) {
	return c.infer(state, 0, false)
}

// InferFlow is Infer with an explicit flow identity: the server hashes the
// flow ID to a shard, so all requests tagged with one flow are answered in
// submission order wherever they arrive.
func (c *Client) InferFlow(flow uint64, state []float64) (Result, error) {
	return c.infer(state, flow, true)
}

func (c *Client) infer(state []float64, flow uint64, tagged bool) (Result, error) {
	ch := c.getCh()
	c.mu.Lock()
	if c.dead != nil {
		c.mu.Unlock()
		c.putCh(ch)
		return Result{}, c.dead
	}
	if !c.started {
		c.started = true
		go c.readLoop()
	}
	c.next++
	id := c.next
	c.calls[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	c.wbuf = appendFlowRequest(c.wbuf[:0], id, state, flow, tagged)
	_, err := c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	if err != nil {
		c.dropCall(id, ch)
		return Result{}, fmt.Errorf("serve: send request: %w", err)
	}

	var timeout <-chan time.Time
	if c.Timeout > 0 {
		t := time.NewTimer(c.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case r := <-ch:
		c.putCh(ch)
		return r.res, r.err
	case <-timeout:
		if r, ok := c.dropCall(id, ch); ok {
			// Response raced the timer; the buffer kept it.
			return r.res, r.err
		}
		return Result{}, fmt.Errorf("serve: request %d after %v: %w", id, c.Timeout, ErrInferTimeout)
	}
}

// dropCall unregisters a pending call and reclaims its channel, returning
// any result that landed before the entry was removed.
func (c *Client) dropCall(id uint64, ch chan clientResult) (clientResult, bool) {
	c.mu.Lock()
	delete(c.calls, id)
	c.mu.Unlock()
	select {
	case r := <-ch:
		c.putCh(ch)
		return r, true
	default:
		c.putCh(ch)
		return clientResult{}, false
	}
}

// Close tears down the connection; outstanding Infer calls return
// ErrClientClosed.
func (c *Client) Close() error {
	return c.conn.Close()
}

package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Options configures a Server. The zero value selects production defaults.
type Options struct {
	// Shards is how many policy shards to run: per-shard core.Service
	// instances, each with its own evaluator goroutine, private batch
	// queue, and cloned policy. Admission hashes the request's flow ID
	// (per-connection identity when untagged) to a shard, so one flow's
	// requests stay ordered on one evaluator. Default GOMAXPROCS, capped
	// at 16.
	Shards int
	// QueueDepth bounds the in-flight requests per shard; a request
	// arriving with its shard full is shed with a fallback answer.
	// Default 4×MaxInflight when that is set, else 1024.
	QueueDepth int
	// MaxInflight only feeds the QueueDepth default (4×MaxInflight). It
	// stays only because the benchmark harness sets it; new callers set
	// QueueDepth.
	MaxInflight int
	// Deadline is the per-request budget measured from the moment the
	// request is read off the wire. A request the policy has not answered
	// within it receives the fallback action instead. Default 20ms.
	Deadline time.Duration
	// WriteTimeout bounds each response write so a stalled client cannot
	// park an evaluator for long. Default 5s.
	WriteTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
		if o.Shards > 16 {
			o.Shards = 16
		}
	}
	if o.QueueDepth <= 0 {
		if o.MaxInflight > 0 {
			o.QueueDepth = 4 * o.MaxInflight
		} else {
			o.QueueDepth = 1024
		}
	}
	if o.Deadline <= 0 {
		o.Deadline = 20 * time.Millisecond
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	return o
}

// servedReq is one admitted inference request. Requests are pooled: the
// state buffer and the struct itself are recycled, so the steady-state
// framed request path performs no per-request allocation. Exactly one reply
// route is set: sc for stream transports, pc/from for datagram transports.
//
// Lifecycle: after admission the request is referenced by two parties — the
// shard evaluator (via core.Service.SubmitTo) and the shard's deadline
// sweeper. Whoever wins the answered CAS writes the response; both drop
// their reference through release, and the loser's drop recycles the
// request. A shed request never enters either and is recycled immediately.
type servedReq struct {
	srv      *Server
	reqID    uint64
	state    []float64
	arrived  time.Time
	deadline time.Time
	shard    int
	sc       *streamConn
	pc       net.PacketConn
	from     net.Addr
	answered atomic.Bool
	refs     atomic.Int32
}

// Complete implements core.Completion: the shard evaluator delivers the
// policy's action here. A request the sweeper already answered (deadline
// miss) is left alone — never delivered twice.
func (r *servedReq) Complete(action float64) {
	if r.answered.CompareAndSwap(false, true) {
		r.srv.reply(r, action, 0, true)
	}
	r.release()
}

func (r *servedReq) release() {
	if r.refs.Add(-1) == 0 {
		r.srv.putReq(r)
	}
}

// streamConn wraps one accepted stream connection. wmu serializes the write
// arena: evaluators append coalesced response frames to wbuf and flush once
// per batch (or at the size threshold), so a batch of responses costs one
// syscall per touched connection, not one per response. seed is the
// connection's flow identity for untagged requests.
type streamConn struct {
	conn net.Conn
	seed uint64

	wmu   sync.Mutex
	wbuf  []byte // pending response frames (the per-conn write arena)
	dirty bool   // wbuf has coalesced frames awaiting a batch flush
	dead  bool   // write failed; guarded by wmu
}

// flushThreshold flushes a connection's write arena early when coalescing
// has accumulated this many bytes.
const flushThreshold = 16 << 10

// sweepGranularity is the deadline sweeper's re-check period while parked
// on an unanswered request: it bounds how long an answered request can
// occupy a shard's in-flight slot, and the worst-case lateness of a
// deadline fallback.
const sweepGranularity = time.Millisecond

// dirtySet tracks the connections a shard's evaluator has coalesced
// responses into since its last batch flush. Two slices ping-pong so the
// steady state allocates nothing.
type dirtySet struct {
	mu    sync.Mutex
	conns []*streamConn
	spare []*streamConn
}

// connSeq seeds per-connection flow identities.
var connSeq atomic.Uint64

// Server fans network clients into a ShardedService: N per-shard batching
// core.Service instances with flow-ID-hashed admission. It never spawns a
// goroutine per request: transport readers admit directly into the owning
// shard (bounded by QueueDepth, overflow shed with an immediate fallback
// answer), the shard evaluator answers through the pooled request's
// Complete, and a per-shard sweeper answers anything the policy has not
// delivered by its deadline. See the package comment for the full contract.
type Server struct {
	sharded  *ShardedService
	fallback *core.ReferencePolicy
	opts     Options

	sweeps  []chan *servedReq
	dirty   []dirtySet
	sweepWG sync.WaitGroup
	ioWG    sync.WaitGroup

	reqPool sync.Pool

	mu        sync.Mutex
	listeners []net.Listener
	pconns    []net.PacketConn
	conns     map[*streamConn]struct{}
	draining  bool
	closed    bool

	shutdownOnce sync.Once
	shutdownErr  error

	// Telemetry (nil-safe when uninstrumented).
	mRequests  *telemetry.Counter
	mResponses *telemetry.Counter
	mFallback  *telemetry.Counter
	mShed      *telemetry.Counter
	mDeadline  *telemetry.Counter
	mReadErr   *telemetry.Counter
	mWriteErr  *telemetry.Counter
	mConns     *telemetry.Counter
	gConns     *telemetry.Gauge
	gVersion   *telemetry.Gauge
	hLatency   *telemetry.Histogram
}

// NewServer builds a server around svc, which becomes shard 0 of a
// ShardedService of opts.Shards shards (the remaining shards clone svc's
// policy and batching parameters). The fallback law is the reference policy
// for cfg, used through its pure FallbackAction (safe concurrently). The
// policy version starts at 1; every successful SetPolicy increments it.
// Shard evaluators and sweepers start immediately; call Listen to accept
// traffic.
func NewServer(svc *core.Service, cfg core.Config, opts Options) *Server {
	s := &Server{
		fallback: core.NewReferencePolicy(cfg),
		opts:     opts.withDefaults(),
		conns:    make(map[*streamConn]struct{}),
	}
	s.sharded = NewShardedService(svc, cfg, s.opts.Shards)
	n := s.sharded.NumShards()
	s.sweeps = make([]chan *servedReq, n)
	s.dirty = make([]dirtySet, n)
	for i := 0; i < n; i++ {
		s.sweeps[i] = make(chan *servedReq, s.opts.QueueDepth)
		idx := i
		s.sharded.Shard(i).AfterBatch = func() { s.flushShard(idx) }
		s.sweepWG.Add(1)
		go s.sweeper(idx)
	}
	return s
}

// Sharded exposes the underlying shard set (shard count, per-shard
// services) for tests and operational tooling.
func (s *Server) Sharded() *ShardedService { return s.sharded }

// Stats sums request and batch counts across all shards.
func (s *Server) Stats() (requests, batches int64) { return s.sharded.Stats() }

// Instrument registers the serving metrics on reg. Call before Listen.
func (s *Server) Instrument(reg *telemetry.Registry) {
	s.mRequests = reg.Counter("serve_requests_total", "requests read off the wire")
	s.mResponses = reg.Counter("serve_responses_total", "responses written (incl. fallback)")
	s.mFallback = reg.Counter("serve_fallback_total", "responses answered by the fallback law")
	s.mShed = reg.Counter("serve_shed_total", "requests shed at admission (shard queue full)")
	s.mDeadline = reg.Counter("serve_deadline_miss_total", "requests that outran their deadline")
	s.mReadErr = reg.Counter("serve_read_errors_total", "malformed frames/datagrams and failed reads")
	s.mWriteErr = reg.Counter("serve_write_errors_total", "failed response writes")
	s.mConns = reg.Counter("serve_conns_total", "stream connections accepted")
	s.gConns = reg.Gauge("serve_conns_active", "open stream connections")
	s.gVersion = reg.Gauge("serve_policy_version", "version counter of the served policy")
	s.gVersion.Set(float64(s.sharded.PolicyVersion()))
	reg.Gauge("serve_shards", "policy shards serving").Set(float64(s.sharded.NumShards()))
	s.hLatency = reg.Histogram("serve_e2e_latency_seconds", "wire-to-wire request latency",
		telemetry.ExponentialBuckets(1e-5, 4, 12)) // 10 µs .. 42 s
	reg.GaugeFunc("serve_queue_depth", "requests in flight across shard queues", func() float64 {
		total := 0
		for _, c := range s.sweeps {
			total += len(c)
		}
		return float64(total)
	})
	s.sharded.Instrument(reg)
}

// SetPolicy swaps the served policy on every shard (cloned per shard so no
// two evaluators share scratch state); the underlying ShardedService bumps
// the single global version counter — one atomic event for the whole fleet.
// In-flight batches keep the policy they were detached with, so no request
// is dropped or errored by a swap; responses are stamped with the counter
// value at write time, so the version a connection observes is monotonic.
func (s *Server) SetPolicy(p core.Policy) uint32 {
	v := s.sharded.SetPolicy(p)
	s.gVersion.Set(float64(v))
	return v
}

// PolicyVersion returns the current policy version counter.
func (s *Server) PolicyVersion() uint32 { return s.sharded.PolicyVersion() }

// Listen opens one serving endpoint and starts its I/O loop. Stream
// networks (tcp, tcp4, tcp6, unix) use length-prefixed framing; datagram
// networks (udp, udp4, udp6, unixgram) speak the bare core codec, one
// request per datagram, and reply with the served response payload, whose
// trailer base-codec decoders can ignore. Returns the bound address
// (useful with port/path 0).
func (s *Server) Listen(network, address string) (net.Addr, error) {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return nil, errors.New("serve: server is shut down")
	}
	s.mu.Unlock()

	switch network {
	case "tcp", "tcp4", "tcp6", "unix":
		ln, err := net.Listen(network, address)
		if err != nil {
			return nil, fmt.Errorf("serve: listen %s %s: %w", network, address, err)
		}
		s.mu.Lock()
		if s.draining || s.closed { // lost a race with Shutdown
			s.mu.Unlock()
			ln.Close()
			return nil, errors.New("serve: server is shut down")
		}
		s.listeners = append(s.listeners, ln)
		s.mu.Unlock()
		s.ioWG.Add(1)
		go s.acceptLoop(ln)
		return ln.Addr(), nil
	case "udp", "udp4", "udp6", "unixgram":
		pc, err := net.ListenPacket(network, address)
		if err != nil {
			return nil, fmt.Errorf("serve: listen %s %s: %w", network, address, err)
		}
		s.mu.Lock()
		if s.draining || s.closed { // lost a race with Shutdown
			s.mu.Unlock()
			pc.Close()
			return nil, errors.New("serve: server is shut down")
		}
		s.pconns = append(s.pconns, pc)
		s.mu.Unlock()
		s.ioWG.Add(1)
		go s.packetLoop(pc)
		return pc.LocalAddr(), nil
	default:
		return nil, fmt.Errorf("serve: unsupported network %q", network)
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.ioWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient accept error (e.g. EMFILE): keep serving
		}
		sc := &streamConn{conn: conn, seed: connSeq.Add(1)}
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.mConns.Inc()
		s.gConns.Add(1)
		s.ioWG.Add(1)
		go s.connLoop(sc)
	}
}

// connLoop reads framed requests off one stream connection until the peer
// closes it (or a fatal read error). Malformed payloads and oversized
// frames are counted and skipped; framing keeps the stream aligned. The
// frame payload is read into a per-connection reusable buffer, so the
// steady-state read path allocates nothing.
func (s *Server) connLoop(sc *streamConn) {
	defer s.ioWG.Done()
	defer func() {
		s.mu.Lock()
		if s.draining {
			// Drain in progress: stop reading but leave the connection open
			// and registered — shards may still owe it replies. doShutdown
			// closes it after the shard queues empty.
			s.mu.Unlock()
			return
		}
		delete(s.conns, sc)
		s.mu.Unlock()
		sc.conn.Close()
		s.gConns.Add(-1)
	}()
	br := bufio.NewReaderSize(sc.conn, 64<<10)
	var rbuf []byte
	for {
		payload, err := readFrameInto(br, &rbuf)
		if err != nil {
			var tooBig errFrameTooLarge
			if errors.As(err, &tooBig) {
				s.mReadErr.Inc()
				if discardFrame(br, uint32(tooBig)) == nil {
					continue
				}
				return
			}
			s.mu.Lock()
			stopping := s.draining || s.closed
			s.mu.Unlock()
			if !stopping && !errors.Is(err, io.EOF) {
				s.mReadErr.Inc()
			}
			return
		}
		s.handlePayload(payload, sc, nil, nil)
	}
}

// packetLoop reads bare-codec datagrams. During drain it stops reading (the
// socket stays open so queued replies can still go out).
func (s *Server) packetLoop(pc net.PacketConn) {
	defer s.ioWG.Done()
	buf := make([]byte, core.RequestSize(core.MaxStateDim)+flowTrailerSize)
	for {
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			s.mu.Lock()
			stop := s.draining || s.closed
			s.mu.Unlock()
			if stop || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.handlePayload(buf[:n], nil, pc, from)
	}
}

// getReq fetches a pooled request object.
func (s *Server) getReq() *servedReq {
	if v := s.reqPool.Get(); v != nil {
		return v.(*servedReq)
	}
	return &servedReq{srv: s, state: make([]float64, 0, 64)}
}

// putReq recycles a request object; the state buffer keeps its capacity.
func (s *Server) putReq(r *servedReq) {
	r.sc, r.pc, r.from = nil, nil, nil
	s.reqPool.Put(r)
}

// handlePayload decodes one request payload (framed stream or bare
// datagram) into a pooled request and admits it to its shard. The flow key
// is the request's flow-ID trailer when present, else the connection's seed
// (stream) or the sender address (datagram) — so untagged senders get
// per-connection ordering and tagged flows get cross-connection ordering.
// A request whose shard queue is full is shed with an immediate fallback
// answer on the transport goroutine: the fallback law is pure, so this is
// cheap and needs no coordination.
func (s *Server) handlePayload(payload []byte, sc *streamConn, pc net.PacketConn, from net.Addr) {
	r := s.getReq()
	reqID, state, err := core.DecodeRequestInto(payload, r.state[:0])
	if err != nil {
		s.mReadErr.Inc()
		s.putReq(r)
		return
	}
	s.mRequests.Inc()
	r.reqID = reqID
	r.state = state
	r.sc, r.pc, r.from = sc, pc, from
	r.arrived = time.Now()
	r.deadline = r.arrived.Add(s.opts.Deadline)

	var key uint64
	if flow, tagged := requestFlow(payload, len(state)); tagged {
		key = flow
	} else if sc != nil {
		key = sc.seed
	} else {
		key = addrKey(from)
	}
	idx := s.sharded.ShardIndex(key)
	r.shard = idx
	r.answered.Store(false)
	r.refs.Store(2)
	select {
	case s.sweeps[idx] <- r:
	default:
		s.mShed.Inc()
		s.mFallback.Inc()
		s.reply(r, s.fallback.FallbackAction(r.state), FlagFallback|FlagShed, false)
		s.putReq(r)
		return
	}
	s.sharded.Shard(idx).SubmitTo(r.state, r)
}

// addrKey hashes a datagram sender address (FNV-1a over the concrete
// address bytes, avoiding the String allocation for the common types).
func addrKey(a net.Addr) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	switch v := a.(type) {
	case *net.UDPAddr:
		for _, b := range v.IP {
			h = (h ^ uint64(b)) * prime
		}
		h = (h ^ uint64(v.Port)) * prime
	case *net.UnixAddr:
		for i := 0; i < len(v.Name); i++ {
			h = (h ^ uint64(v.Name[i])) * prime
		}
	default:
		str := a.String()
		for i := 0; i < len(str); i++ {
			h = (h ^ uint64(str[i])) * prime
		}
	}
	return h
}

// sweeper is one shard's deadline watchdog: it walks admitted requests in
// arrival (hence deadline) order and answers any the evaluator has not
// delivered by its deadline with the fallback action. It re-checks at
// sweepGranularity while parked, so an answered request frees its in-flight
// slot promptly instead of holding it until the deadline.
func (s *Server) sweeper(idx int) {
	defer s.sweepWG.Done()
	for r := range s.sweeps[idx] {
		for !r.answered.Load() {
			d := time.Until(r.deadline)
			if d <= 0 {
				if r.answered.CompareAndSwap(false, true) {
					s.mDeadline.Inc()
					s.mFallback.Inc()
					s.reply(r, s.fallback.FallbackAction(r.state), FlagFallback|FlagDeadline, false)
				}
				break
			}
			if d > sweepGranularity {
				d = sweepGranularity
			}
			time.Sleep(d)
		}
		r.release()
	}
}

// reply writes one response over the request's transport and records
// latency. Stream responses append to the connection's write arena; with
// coalesce set (the evaluator path) the arena is flushed once per batch by
// the shard's AfterBatch hook, otherwise (fallback/shed answers) it is
// flushed immediately — the whole arena, so per-connection response order
// is preserved.
func (s *Server) reply(r *servedReq, action float64, flags uint32, coalesce bool) {
	if r.sc != nil {
		s.writeStream(r.sc, r.shard, r.reqID, action, flags, coalesce)
	} else {
		var buf [servedResponseSize]byte
		payload := appendServedResponse(buf[:0], r.reqID, action, flags, s.sharded.PolicyVersion())
		if _, err := r.pc.WriteTo(payload, r.from); err != nil {
			s.mWriteErr.Inc()
		}
	}
	s.mResponses.Inc()
	s.hLatency.Observe(time.Since(r.arrived).Seconds())
}

// writeStream appends one framed response to the connection's write arena.
// The version stamp is read under wmu at append time, so the sequence of
// versions on one connection is monotonic. The dirty flag is only ever
// set by a goroutine that will follow with an arena flush (the evaluator's
// AfterBatch, or the inline flush here), so coalesced bytes can never be
// stranded.
func (s *Server) writeStream(sc *streamConn, shardIdx int, reqID uint64, action float64, flags uint32, coalesce bool) {
	sc.wmu.Lock()
	if sc.dead {
		sc.wmu.Unlock()
		return
	}
	sc.wbuf = appendServedFrame(sc.wbuf, reqID, action, flags, s.sharded.PolicyVersion())
	if !coalesce || len(sc.wbuf) >= flushThreshold {
		s.flushConnLocked(sc)
		sc.wmu.Unlock()
		return
	}
	alreadyDirty := sc.dirty
	sc.dirty = true
	sc.wmu.Unlock()
	if !alreadyDirty {
		d := &s.dirty[shardIdx]
		d.mu.Lock()
		d.conns = append(d.conns, sc)
		d.mu.Unlock()
	}
}

// flushConnLocked writes and resets the connection's arena; callers hold
// wmu. A failed or timed-out write marks the connection dead (the reader
// will notice the close) rather than blocking shards indefinitely.
func (s *Server) flushConnLocked(sc *streamConn) {
	if len(sc.wbuf) == 0 || sc.dead {
		return
	}
	sc.conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	_, err := sc.conn.Write(sc.wbuf)
	sc.wbuf = sc.wbuf[:0]
	if err != nil {
		sc.dead = true
		s.mWriteErr.Inc()
		sc.conn.Close()
	}
}

// flushShard is shard idx's AfterBatch hook: flush every connection the
// evaluator coalesced responses into during the batch. One syscall per
// touched connection per batch is what turns the per-response write of the
// old design into line-rate framing.
func (s *Server) flushShard(idx int) {
	d := &s.dirty[idx]
	d.mu.Lock()
	conns := d.conns
	d.conns = d.spare[:0]
	d.mu.Unlock()
	for _, sc := range conns {
		sc.wmu.Lock()
		sc.dirty = false
		s.flushConnLocked(sc)
		sc.wmu.Unlock()
	}
	clear(conns)
	d.mu.Lock()
	d.spare = conns[:0]
	d.mu.Unlock()
}

// Shutdown drains the server: stop accepting new connections and datagrams,
// let requests in flight (including those still arriving on open stream
// connections) finish, then close the shard services and release the
// sweepers. It returns nil on a clean drain. If ctx expires first,
// remaining connections are force-closed and ctx's error is returned.
// Shutdown is idempotent; concurrent calls share the first caller's
// outcome.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.doShutdown(ctx) })
	return s.shutdownErr
}

func (s *Server) doShutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	listeners := append([]net.Listener(nil), s.listeners...)
	pconns := append([]net.PacketConn(nil), s.pconns...)
	conns := make([]*streamConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()

	for _, ln := range listeners {
		ln.Close()
	}
	// Poke the transport readers out of their blocking reads; they see
	// draining and stop reading while the sockets stay open, so shards can
	// still flush replies for everything already admitted.
	for _, pc := range pconns {
		_ = pc.SetReadDeadline(time.Now())
	}
	for _, sc := range conns {
		_ = sc.conn.SetReadDeadline(time.Now())
	}

	ioDone := make(chan struct{})
	go func() {
		s.ioWG.Wait()
		close(ioDone)
	}()
	var forced error
	select {
	case <-ioDone:
	case <-ctx.Done():
		forced = ctx.Err()
		s.mu.Lock()
		for sc := range s.conns {
			sc.conn.Close()
		}
		s.mu.Unlock()
		<-ioDone
	}

	// All transport goroutines have exited: nothing can admit anymore.
	// Closing the shard services completes every submitted request (the
	// evaluators drain), after which the sweepers see only answered
	// entries and exit quickly once their feeds close.
	s.sharded.Close()
	for _, c := range s.sweeps {
		close(c)
	}
	s.sweepWG.Wait()

	s.mu.Lock()
	s.closed = true
	for sc := range s.conns {
		sc.conn.Close()
		s.gConns.Add(-1)
	}
	s.conns = make(map[*streamConn]struct{})
	for _, pc := range pconns {
		pc.Close()
	}
	s.mu.Unlock()
	return forced
}

// Close shuts down immediately: open connections are cut rather than
// drained. Requests already admitted are still answered best-effort.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// The serve workload is an open loop of independent flows against an
// in-process server built the way cmd/astraea-serve builds it with its
// shipped defaults: the quantized distilled actor, GOMAXPROCS shards, a
// 5 ms batch window, MaxBatch 256, a 20 ms deadline and the CLI's queue
// depth. Each flow sends one tagged request per MTP (30 ms) from a random
// phase; flows are multiplexed over at most nproc TCP connections.

const (
	mtp           = 30 * time.Millisecond
	sloLatency    = 20 * time.Millisecond // the shipped deadline
	sloMissFrac   = 0.01
	sloLagBound   = 10 * time.Millisecond // p99 send lag beyond it invalidates a step
	statesPerFlow = 4
	workersPerCon = 512 // requests one connection can have outstanding
)

// serveTier is a fixed flow count; its rate is flows per MTP.
type serveTier struct {
	name  string
	flows int
}

var serveTiers = []serveTier{
	{"light", 120}, // 4,000 req/s: the batch window dominates
	{"busy", 240},  // 8,000 req/s: the reload lands mid-tier
	{"peak", 480},  // 16,000 req/s: batch fill and evaluator time dominate
}

// ladderFlows is the rate ladder above the peak tier for the SLO search,
// in flows: 24k to 64k req/s. On the reference host the server starts
// shedding between 40k and 64k, so the search ends inside the ladder.
// The rungs above 40k are wide on purpose: the knee moves with the host's
// speed by about a fifth between runs; close rungs would report all of
// that movement, wide ones absorb most of it.
var ladderFlows = []int{720, 960, 1200, 1440, 1920}

// serveRounds is how many times each tier and ladder rung runs. At
// --seconds 20 each light-tier round of eight still holds over 1,000
// requests, so its p99 has ten samples beyond it.
const serveRounds = 8

func tierRate(flows int) float64 { return float64(flows) / mtp.Seconds() }

// reqRecord is one request's outcome. Times are nanoseconds since the
// phase start.
type reqRecord struct {
	flow    int32
	state   int32 // index into the generator's states
	due     int64
	sent    int64
	done    int64
	action  float64
	flags   uint32
	version uint32
	minVer  uint32 // highest version the connection had seen when sent
	err     bool
}

// phaseResult is one open-loop phase's requests, per connection.
type phaseResult struct {
	name    string
	recs    [][]reqRecord
	started time.Time
	cpu     time.Duration // process CPU time spent in the phase
}

// phaseStats summarises a phase.
type phaseStats struct {
	n        int
	p50, p99 float64 // ms from due time
	mean     float64 // ms from send time
	maxLag   float64 // ms
	p99Lag   float64 // ms
	missFrac float64 // share of requests that missed
	cpu      time.Duration
}

func (p *phaseResult) stats() phaseStats {
	st := phaseStats{cpu: p.cpu}
	var lat, lag []float64
	var sentToDone float64
	misses := 0
	for _, rs := range p.recs {
		for _, r := range rs {
			st.n++
			l := float64(r.done-r.due) / 1e6
			lat = append(lat, l)
			lag = append(lag, float64(r.sent-r.due)/1e6)
			sentToDone += float64(r.done-r.sent) / 1e6
			if r.err || r.flags != 0 || l > ms(sloLatency) {
				misses++
			}
		}
	}
	st.missFrac = float64(misses) / float64(st.n)
	st.mean = sentToDone / float64(st.n)
	sort.Float64s(lat)
	sort.Float64s(lag)
	st.p50, st.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	st.p99Lag, st.maxLag = quantile(lag, 0.99), lag[len(lag)-1]
	return st
}

// generator drives the open loop over a fixed set of client connections.
// Each connection has a fixed pool of workers, started once, that send the
// requests its per-phase scheduler hands them; a request waits for a free
// worker only when workersPerCon are outstanding, and that wait shows as
// send lag.
type generator struct {
	clients []*serve.Client
	states  [][]float64
	maxSeen []atomic.Uint32 // per connection: highest version answered
	tr      *Tracer
	span    int64
	jobs    []chan genJob
	workers sync.WaitGroup
}

// genJob is one request handed to a connection's workers.
type genJob struct {
	rec   *reqRecord
	s     scheduled
	start time.Time
	span  int64
	done  *sync.WaitGroup
}

func newGenerator(clients []*serve.Client, states [][]float64, tr *Tracer) *generator {
	g := &generator{clients: clients, states: states, maxSeen: make([]atomic.Uint32, len(clients)), tr: tr}
	for c := range clients {
		jobs := make(chan genJob) // unbuffered: a job is taken only by a free worker
		g.jobs = append(g.jobs, jobs)
		for w := 0; w < workersPerCon; w++ {
			g.workers.Add(1)
			go func(c int) {
				defer g.workers.Done()
				for j := range jobs {
					g.do(c, j)
					j.done.Done()
				}
			}(c)
		}
	}
	return g
}

// stop ends the workers and waits for them.
func (g *generator) stop() {
	for _, j := range g.jobs {
		close(j)
	}
	g.workers.Wait()
}

// schedule lists one connection's requests in due order: flows whose index
// is conn mod conns, each from its phase, one per MTP.
type scheduled struct {
	due  int64
	flow int32
}

func buildSchedule(rng *rand.Rand, flows, conns int, dur time.Duration) [][]scheduled {
	out := make([][]scheduled, conns)
	for f := 0; f < flows; f++ {
		phase := time.Duration(rng.Int63n(int64(mtp)))
		for t := phase; t < dur; t += mtp {
			out[f%conns] = append(out[f%conns], scheduled{due: int64(t), flow: int32(f)})
		}
	}
	for _, s := range out {
		sort.Slice(s, func(i, j int) bool { return s[i].due < s[j].due })
	}
	return out
}

// run executes one phase and waits until every request is answered. mid,
// when set, runs once at the phase's midpoint on its own goroutine,
// concurrently with the load.
func (g *generator) run(name string, rng *rand.Rand, flows int, dur time.Duration, mid func()) *phaseResult {
	sched := buildSchedule(rng, flows, len(g.clients), dur)
	pr := &phaseResult{name: name, recs: make([][]reqRecord, len(g.clients))}
	for c := range g.clients {
		pr.recs[c] = make([]reqRecord, len(sched[c]))
	}
	span := g.tr.Begin(g.span, "serve", "phase", name)
	defer g.tr.End(span)
	var requests, schedulers sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	pr.started = start
	if mid != nil {
		schedulers.Add(1)
		go func() {
			defer schedulers.Done()
			time.Sleep(dur / 2)
			mid()
		}()
	}
	for c := range g.clients {
		schedulers.Add(1)
		go func(c int) {
			defer schedulers.Done()
			for i, s := range sched[c] {
				if d := time.Duration(s.due) - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				requests.Add(1)
				g.jobs[c] <- genJob{rec: &pr.recs[c][i], s: s, start: start, span: span, done: &requests}
			}
		}(c)
	}
	schedulers.Wait()
	requests.Wait()
	pr.cpu = processCPU() - cpu0
	return pr
}

// do sends one request and records its outcome.
func (g *generator) do(c int, j genJob) {
	r, s := j.rec, j.s
	r.flow, r.due = s.flow, s.due
	r.state = s.flow*statesPerFlow + int32(s.due/int64(mtp))%statesPerFlow
	r.minVer = g.maxSeen[c].Load()
	sent := time.Now()
	r.sent = int64(sent.Sub(j.start))
	res, err := g.clients[c].InferFlow(uint64(s.flow), g.states[r.state])
	done := time.Now()
	r.done = int64(done.Sub(j.start))
	if err != nil {
		r.err = true
		return
	}
	r.action, r.flags, r.version = res.Action, res.Flags, res.Version
	for {
		cur := g.maxSeen[c].Load()
		if res.Version <= cur || g.maxSeen[c].CompareAndSwap(cur, res.Version) {
			break
		}
	}
	g.tr.Record(j.span, "serve", "InferFlow", fmt.Sprintf("conn-%d/flow-%d/t-%d", c, s.flow, s.due), sent, done)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serveStack is one built server with its clients.
type serveStack struct {
	srv      *serve.Server
	reg      *telemetry.Registry
	reloader *serve.Reloader
	clients  []*serve.Client
	act      actors
	artifact string
}

func (s *serveStack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // drain errors surface as client failures, which are checked
}

// startServe distills and seals the actor, then builds and starts the
// server as cmd/astraea-serve does and dials the client connections.
func startServe(opts options, rep int) (*serveStack, error) {
	cfg := core.DefaultConfig()
	act, err := buildActors(cfg)
	if err != nil {
		return nil, err
	}
	artifact := filepath.Join(opts.workDir, fmt.Sprintf("serve-%d-%d.policy", os.Getpid(), rep))
	if err := core.SaveSealedPolicy(artifact, act.float.Net, core.PolicyMeta{Generation: 1}); err != nil {
		return nil, err
	}
	policy, err := core.LoadServingPolicy(artifact, cfg, true)
	if err != nil {
		return nil, err
	}
	svc := core.NewService(cfg, policy)
	svc.BatchWindow = 5 * time.Millisecond
	svc.MaxBatch = 256
	srv := serve.NewServer(svc, cfg, serve.Options{MaxInflight: 64, Deadline: sloLatency})
	reg := telemetry.NewRegistry()
	srv.Instrument(reg)
	reloader := serve.NewReloader(srv, artifact, cfg)
	reloader.Instrument(reg)
	st := &serveStack{srv: srv, reg: reg, reloader: reloader, act: act, artifact: artifact}
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	for c := 0; c < opts.workers; c++ {
		cl, err := serve.Dial("tcp", addr.String())
		if err != nil {
			st.close()
			return nil, err
		}
		cl.Timeout = 2 * time.Second
		st.clients = append(st.clients, cl)
	}
	return st, nil
}

func runServe(opts options) (*outcome, error) {
	out := &outcome{}
	rep := 0
	var stacks []*serveStack
	st, setupS, err := timeSetup(3, func() (*serveStack, error) {
		rep++
		s, err := startServe(opts, rep)
		if err == nil {
			stacks = append(stacks, s)
		}
		return s, err
	})
	for _, s := range stacks[:max(0, len(stacks)-1)] {
		s.close()
		os.Remove(s.artifact)
	}
	if err != nil {
		return nil, err
	}
	defer os.Remove(st.artifact)
	defer st.close()

	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(opts.seed))
	maxFlows := ladderFlows[len(ladderFlows)-1]
	states := make([][]float64, maxFlows*statesPerFlow)
	expected := make([]float64, len(states))
	local := core.ClonePolicy(st.act.quant)
	for i := range states {
		states[i] = core.SampleCalibrationState(cfg, rng)
		expected[i] = local.Action(states[i])
	}
	g := newGenerator(st.clients, states, opts.trace)
	defer g.stop()
	root := opts.trace.Begin(0, "telemetry", "serve", fmt.Sprintf("seed-%d", opts.seed))
	g.span = root

	// Each phase is checked and summarised as soon as it ends, so the
	// heap does not grow with the records of earlier phases.
	var rl reloadResult
	byPhase := map[string][]phaseStats{}
	record := func(p *phaseResult) {
		for _, rs := range p.recs {
			for _, r := range rs {
				if r.err {
					out.failed++
					continue
				}
				checkAnswer(out, p, r, expected, rl)
			}
		}
		s := p.stats()
		out.attempted += int64(s.n)
		byPhase[p.name] = append(byPhase[p.name], s)
	}
	record(g.run("warmup", rng, serveTiers[0].flows, time.Second, nil))
	v0 := st.srv.PolicyVersion()
	reload := func() { rl = reloadArtifact(opts.trace, root, st) }

	// Every round runs each tier and each ladder step once, so a slow
	// stretch of the host lands on one round of every phase rather than
	// on all of one phase; see roundStats for how rounds combine.
	phaseDur := time.Duration(opts.seconds / float64(serveRounds*(len(serveTiers)+len(ladderFlows))) * float64(time.Second))
	deltas := map[string][]telemetryDelta{}
	for round := 0; round < serveRounds; round++ {
		for _, t := range serveTiers {
			var mid func()
			if t.name == "busy" && round == serveRounds/2 {
				mid = reload // halfway through the run
			}
			before := st.reg.Snapshot()
			p := g.run(t.name, rng, t.flows, phaseDur, mid)
			deltas[t.name] = append(deltas[t.name], telemetryDelta{before, st.reg.Snapshot()})
			record(p)
		}
		for i, f := range ladderFlows {
			record(g.run(ladderName(i), rng, f, phaseDur, nil))
		}
	}
	var untracedPeak []phaseStats
	if opts.trace != nil {
		// The peak tier again with the per-request spans off, for the
		// tracing overhead in CPU time per request.
		g.tr = nil
		record(g.run("peak-untraced", rng, serveTiers[len(serveTiers)-1].flows, 2*phaseDur, nil))
		untracedPeak = byPhase["peak-untraced"]
		g.tr = opts.trace
	}
	opts.trace.End(root)

	if rl.err != nil {
		out.fail("reload: %v", rl.err)
	} else if rl.version <= v0 {
		out.fail("reload left the policy version at %d (was %d)", rl.version, v0)
	}
	if out.failed > 0 {
		out.fail("%d of %d requests failed", out.failed, out.attempted)
	}
	if len(out.errs) > 10 {
		out.errs = append(out.errs[:10], fmt.Sprintf("and %d more", len(out.errs)-10))
	}

	tierStats := map[string]phaseStats{}
	for _, t := range serveTiers {
		tierStats[t.name] = roundStats(byPhase[t.name])
		out.diag("lag_ms.max."+t.name, tierStats[t.name].maxLag)
	}
	// The search starts at the light tier, so a slow host, on which even
	// the peak tier misses the SLO, still finds its knee between two
	// measured rates rather than extrapolating below the lowest one.
	var steps []stepResult
	for _, t := range serveTiers {
		steps = append(steps, stepResult{rate: tierRate(t.flows), st: tierStats[t.name]})
	}
	for i, f := range ladderFlows {
		steps = append(steps, stepResult{rate: tierRate(f), st: roundStats(byPhase[ladderName(i)])})
	}
	maxRate, ladderDiag := sloRate(steps)
	for k, v := range ladderDiag {
		out.diag(k, v)
	}
	if opts.trace != nil {
		for _, t := range serveTiers {
			out.set("serve.p50_ms."+t.name, "ms", tierStats[t.name].p50)
			out.set("serve.p99_ms."+t.name, "ms", tierStats[t.name].p99)
		}
		var missed float64
		for _, ps := range byPhase {
			for _, s := range ps {
				missed += s.missFrac * float64(s.n)
			}
		}
		out.set("serve.miss_frac", "ratio", missed/float64(out.attempted))
		traceServe(opts, st, tierStats, deltas, rl.ms, byPhase["peak"], untracedPeak, root, out)
		return out, nil
	}
	// The unit of work is a request: the throughput is the highest rate
	// that meets the SLO, and an operation's latency is a light-tier
	// request's, from its due time; the other tiers' are per-layer.
	out.set("setup_s", "s", setupS)
	out.set("throughput", "work/s", maxRate)
	out.set("latency_ms", "ms", tierStats["light"].p50)
	for _, t := range serveTiers {
		out.diag("p50_ms."+t.name, tierStats[t.name].p50)
	}
	return out, nil
}

func ladderName(i int) string { return fmt.Sprintf("ladder-%d", i) }

// reloadResult is the mid-run reload's outcome.
type reloadResult struct {
	version uint32
	err     error
	ms      float64
	done    time.Time
}

// reloadArtifact re-seals the serving artifact as generation 2 and hot
// reloads it, as the pilot's promote step does.
func reloadArtifact(tr *Tracer, root int64, st *serveStack) reloadResult {
	if err := core.SaveSealedPolicy(st.artifact, st.act.float.Net, core.PolicyMeta{Generation: 2, Parent: 1}); err != nil {
		return reloadResult{err: err}
	}
	id := tr.Begin(root, "serve", "Reloader.Reload", "generation-2")
	start := time.Now()
	v, err := st.reloader.Reload()
	done := time.Now()
	tr.End(id)
	return reloadResult{version: v, err: err, ms: ms(done.Sub(start)), done: done}
}

// checkAnswer checks one answered request: a bounded action, the local
// policy's action when the policy answered, and a version no older than
// the connection had seen or than the reload installed.
func checkAnswer(out *outcome, p *phaseResult, r reqRecord, expected []float64, rl reloadResult) {
	if math.IsNaN(r.action) || r.action < -1 || r.action > 1 {
		out.fail("%s: flow %d got action %v", p.name, r.flow, r.action)
	}
	if r.flags == 0 && r.action != expected[r.state] {
		out.fail("%s: flow %d got action %v, the policy gives %v", p.name, r.flow, r.action, expected[r.state])
	}
	if r.version < r.minVer {
		out.fail("%s: flow %d answered by version %d after version %d", p.name, r.flow, r.version, r.minVer)
	}
	if rl.version > 0 && p.started.Add(time.Duration(r.sent)).After(rl.done) && r.version < rl.version {
		out.fail("%s: flow %d answered by version %d after the reload to %d", p.name, r.flow, r.version, rl.version)
	}
}

// roundStats summarises one phase over its rounds. The p50 is the median
// of the per-round p50s. The tail figures (p99, p99 send lag and miss
// share) are the lower quartile of the per-round values: host stalls only
// ever inflate a round's tail, and on a shared host they reach more than
// half the rounds of some runs, so the quieter rounds show the program's
// own tail best.
func roundStats(rounds []phaseStats) phaseStats {
	var p50, p99, lag99, miss []float64
	var st phaseStats
	for _, s := range rounds {
		p50, p99, lag99 = append(p50, s.p50), append(p99, s.p99), append(lag99, s.p99Lag)
		miss = append(miss, s.missFrac)
		st.mean += s.mean * float64(s.n)
		st.n += s.n
		st.maxLag = math.Max(st.maxLag, s.maxLag)
	}
	st.p50 = median(p50)
	st.p99, st.p99Lag, st.missFrac = lowerQuartile(p99), lowerQuartile(lag99), lowerQuartile(miss)
	st.mean /= float64(st.n)
	return st
}

func lowerQuartile(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.25)
}

// stepResult is one rung of the SLO ladder.
type stepResult struct {
	rate float64
	st   phaseStats
}

// sloRate finds the highest ladder rate that meets the SLO: p99 within the
// deadline, at most 1% misses, and a generator that kept its schedule
// (p99 send lag within sloLagBound). Between the last step that meets it
// and the first that does not, the rate is interpolated on the worst of
// the three criteria's ratios to their limits, so the figure moves
// smoothly rather than by ladder steps.
func sloRate(steps []stepResult) (float64, map[string]float64) {
	diag := map[string]float64{}
	score := make([]float64, len(steps))
	for i, s := range steps {
		miss := s.st.missFrac
		score[i] = math.Max(s.st.p99/ms(sloLatency), math.Max(miss/sloMissFrac, s.st.p99Lag/ms(sloLagBound)))
		diag[fmt.Sprintf("ladder.%d.rate", i)] = s.rate
		diag[fmt.Sprintf("ladder.%d.p99_ms", i)] = s.st.p99
		diag[fmt.Sprintf("ladder.%d.miss_frac", i)] = miss
		diag[fmt.Sprintf("ladder.%d.lag_ms.p99", i)] = s.st.p99Lag
	}
	if score[0] > 1 {
		// Even the lowest step misses: scale its rate by how far it missed.
		return steps[0].rate / score[0], diag
	}
	for i := 1; i < len(steps); i++ {
		if score[i] > 1 {
			lo, hi := steps[i-1].rate, steps[i].rate
			return lo + (hi-lo)*(1-score[i-1])/(score[i]-score[i-1]), diag
		}
	}
	return steps[len(steps)-1].rate, diag
}

// telemetryDelta is the server registry before and after one phase.
type telemetryDelta struct{ before, after telemetry.Snapshot }

// histDelta sums one histogram's growth over several phases.
func histDelta(ds []telemetryDelta, name string) (bounds []float64, counts []int64, sum float64) {
	for _, d := range ds {
		a, _ := d.after.Get(name)
		b, _ := d.before.Get(name)
		if counts == nil {
			bounds, counts = a.Bounds, make([]int64, len(a.Counts))
		}
		for i := range a.Counts {
			counts[i] += a.Counts[i]
			if len(b.Counts) == len(a.Counts) {
				counts[i] -= b.Counts[i]
			}
		}
		sum += a.Sum - b.Sum
	}
	return bounds, counts, sum
}

// traceServe reads the server's telemetry per tier and times the wire
// codec and the quantized forward directly.
func traceServe(opts options, st *serveStack, tierStats map[string]phaseStats, deltas map[string][]telemetryDelta,
	reloadMS float64, traced, untraced []phaseStats, root int64, out *outcome) {
	for _, t := range serveTiers {
		ds := deltas[t.name]
		qb, qc, _ := histDelta(ds, "core_infer_queue_wait_seconds")
		out.set("core.queue_wait_ms.p50."+t.name, "ms", 1000*histQuantile(qb, qc, 0.5))
		out.set("core.queue_wait_ms.p99."+t.name, "ms", 1000*histQuantile(qb, qc, 0.99))
		_, bc, bsum := histDelta(ds, "core_infer_batch_size")
		out.set("core.batch_size.mean."+t.name, "count", histMean(bsum, bc))
		eb, ec, esum := histDelta(ds, "serve_e2e_latency_seconds")
		out.set("serve.server_ms.p50."+t.name, "ms", 1000*histQuantile(eb, ec, 0.5))
		out.set("serve.server_ms.p99."+t.name, "ms", 1000*histQuantile(eb, ec, 0.99))
		// Means, not medians: the histogram's sum is exact while its
		// factor-4 buckets are too coarse for a median difference.
		out.set("serve.client_overhead_ms.mean."+t.name, "ms", tierStats[t.name].mean-1000*histMean(esum, ec))
		out.set("serve.gen_lag_ms.max."+t.name, "ms", tierStats[t.name].maxLag)
	}
	snap := st.reg.Snapshot()
	for _, c := range []string{"fallback", "shed", "deadline_miss", "read_errors", "write_errors"} {
		m, _ := snap.Get("serve_" + c + "_total")
		out.set("serve."+c, "count", float64(m.Count))
	}
	out.set("serve.reload_ms", "ms", reloadMS)

	rng := rand.New(rand.NewSource(opts.seed))
	state := core.SampleCalibrationState(core.DefaultConfig(), rng)
	const n = 200000
	buf := make([]byte, 0, core.RequestSize(len(state)))
	start := time.Now()
	for i := 0; i < n; i++ {
		buf = core.AppendRequest(buf[:0], uint64(i), state)
	}
	end := time.Now()
	opts.trace.Record(root, "serve", "AppendRequest", fmt.Sprintf("calls-%d", n), start, end)
	out.set("serve.wire_encode_ns", "ns", float64(end.Sub(start).Nanoseconds())/n)
	resp := core.EncodeResponse(7, 0.25)
	start = time.Now()
	for i := 0; i < n; i++ {
		_, a, _ := core.DecodeResponse(resp)
		sink += a
	}
	end = time.Now()
	opts.trace.Record(root, "serve", "DecodeResponse", fmt.Sprintf("calls-%d", n), start, end)
	out.set("serve.wire_decode_ns", "ns", float64(end.Sub(start).Nanoseconds())/n)
	out.set("nn.forward_us.quant_b1", "us", timeForward(opts.trace, root, "quant_b1", core.ClonePolicy(st.act.quant), state))

	perReq := func(ps []phaseStats) float64 {
		var cpu time.Duration
		n := 0
		for _, p := range ps {
			cpu += p.cpu
			n += p.n
		}
		return cpu.Seconds() / float64(n)
	}
	out.set("telemetry.overhead_frac", "ratio", perReq(traced)/perReq(untraced)-1)
}

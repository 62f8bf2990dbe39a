package main

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// testGenerator starts a server on the reference policy (no distillation)
// and a generator with two connections to it.
func testGenerator(t *testing.T) *generator {
	t.Helper()
	cfg := core.DefaultConfig()
	svc := core.NewService(cfg, core.NewReferencePolicy(cfg))
	svc.BatchWindow = 5 * time.Millisecond
	svc.MaxBatch = 256
	srv := serve.NewServer(svc, cfg, serve.Options{MaxInflight: 64, Deadline: sloLatency})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st := &serveStack{srv: srv}
	t.Cleanup(st.close)
	for c := 0; c < 2; c++ {
		cl, err := serve.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		st.clients = append(st.clients, cl)
	}
	rng := rand.New(rand.NewSource(1))
	var states [][]float64
	for i := 0; i < 100*statesPerFlow; i++ {
		states = append(states, core.SampleCalibrationState(cfg, rng))
	}
	g := newGenerator(st.clients, states, nil)
	t.Cleanup(g.stop)
	return g
}

func TestGeneratorKeepsSchedule(t *testing.T) {
	g := testGenerator(t)
	const flows = 100
	dur := time.Second
	want := buildSchedule(rand.New(rand.NewSource(7)), flows, 2, dur)
	p := g.run("test", rand.New(rand.NewSource(7)), flows, dur, nil)

	n := 0
	for c, recs := range p.recs {
		if len(recs) != len(want[c]) {
			t.Fatalf("conn %d sent %d requests, schedule has %d", c, len(recs), len(want[c]))
		}
		for i, r := range recs {
			n++
			if r.due != want[c][i].due || r.flow != want[c][i].flow {
				t.Fatalf("conn %d request %d: due %d flow %d, scheduled %d flow %d",
					c, i, r.due, r.flow, want[c][i].due, want[c][i].flow)
			}
			if r.err {
				t.Fatalf("conn %d request %d failed", c, i)
			}
			if r.sent < r.due || r.done < r.sent {
				t.Fatalf("conn %d request %d: due %d sent %d done %d out of order", c, i, r.due, r.sent, r.done)
			}
		}
	}
	// One request per flow per MTP, from each flow's phase.
	if lo, hi := flows*int(dur/mtp), flows*(int(dur/mtp)+1); n < lo || n > hi {
		t.Fatalf("%d requests for %d flows over %v, want %d..%d", n, flows, dur, lo, hi)
	}
	st := p.stats()
	if st.p99Lag > ms(sloLagBound) {
		t.Errorf("p99 send lag %.2f ms at %0.f req/s: the generator fell behind", st.p99Lag, tierRate(flows))
	}
	if st.maxLag < st.p99Lag || st.p50 <= 0 {
		t.Errorf("inconsistent stats %+v", st)
	}
}

func TestPhaseStatsReportLag(t *testing.T) {
	p := &phaseResult{recs: [][]reqRecord{make([]reqRecord, 100)}}
	for i := range p.recs[0] {
		r := &p.recs[0][i]
		r.due = int64(i) * int64(time.Millisecond)
		r.sent = r.due + int64(time.Millisecond) // every request 1 ms late
		r.done = r.sent + int64(2*time.Millisecond)
	}
	p.recs[0][99].sent += int64(10 * time.Millisecond) // one stall
	p.recs[0][99].done += int64(30 * time.Millisecond)
	st := p.stats()
	if st.maxLag != 11 || st.p99Lag < 1 || st.p99Lag > 11 {
		t.Errorf("lag max %.3f p99 %.3f, want max 11 and p99 between 1 and 11", st.maxLag, st.p99Lag)
	}
	if st.p50 != 3 {
		t.Errorf("p50 %.3f ms from due time, want 3", st.p50)
	}
	if st.missFrac != 0.01 {
		t.Errorf("miss share %v, want 0.01 (the request answered 43 ms after it was due)", st.missFrac)
	}
}

func TestSLORateInterpolates(t *testing.T) {
	step := func(rate, p99 float64) stepResult {
		return stepResult{rate: rate, st: phaseStats{n: 1000, p99: p99}}
	}
	// p99 crosses 20 ms halfway between the second and third step.
	got, _ := sloRate([]stepResult{step(1000, 5), step(2000, 10), step(3000, 30)})
	if got != 2500 {
		t.Errorf("interpolated rate %v, want 2500", got)
	}
	got, _ = sloRate([]stepResult{step(1000, 5), step(2000, 10)})
	if got != 2000 {
		t.Errorf("rate %v with every step passing, want the top step 2000", got)
	}
}

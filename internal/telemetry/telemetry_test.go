package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registering a counter must return the same instance")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	// A nil registry hands out nil instruments and empty snapshots.
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", []float64{1}) != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	r.Merge(Snapshot{Metrics: []Metric{{Name: "x", Kind: KindCounter, Count: 1}}})
	if len(r.Snapshot().Metrics) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "hist", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 556.5; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	m, ok := r.Snapshot().Get("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Per-bucket (non-cumulative) counts: ≤1: 2 (0.5, 1), ≤10: 1 (5),
	// ≤100: 1 (50), +Inf: 1 (500).
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if m.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, m.Counts[i], w, m.Counts)
		}
	}
}

func TestHistogramUnsortedBucketsAreSorted(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{100, 1, 10})
	h.Observe(5)
	m, _ := r.Snapshot().Get("h")
	if m.Bounds[0] != 1 || m.Bounds[1] != 10 || m.Bounds[2] != 100 {
		t.Fatalf("bounds not sorted: %v", m.Bounds)
	}
	if m.Counts[1] != 1 {
		t.Fatalf("observation landed in wrong bucket: %v", m.Counts)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter's name must panic")
		}
	}()
	r.Gauge("m", "")
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("fn", "lazy", func() float64 { return v })
	v = 42
	m, ok := r.Snapshot().Get("fn")
	if !ok || m.Value != 42 {
		t.Fatalf("gauge func snapshot = %+v, want value 42", m)
	}
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "requests served").Add(3)
	r.Gauge("occupancy", "replay occupancy").Set(0.5)
	h := r.Histogram("rtt_seconds", "rtt", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE requests_total counter\nrequests_total 3\n",
		"# TYPE occupancy gauge\noccupancy 0.5\n",
		`rtt_seconds_bucket{le="0.01"} 1`,
		`rtt_seconds_bucket{le="0.1"} 2`,
		`rtt_seconds_bucket{le="+Inf"} 3`,
		"rtt_seconds_sum 5.055",
		"rtt_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONExportRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(7)
	r.Histogram("h", "", []float64{1}).Observe(2)
	var b bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	m, ok := s.Get("a_total")
	if !ok || m.Count != 7 {
		t.Fatalf("round-trip lost counter: %+v", m)
	}
}

func TestMergeAddsCountersAndHistograms(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.Counter("events_total", "").Add(10)
		h := r.Histogram("lat", "", []float64{1, 2})
		h.Observe(0.5)
		h.Observe(3)
		return r
	}
	parent := NewRegistry()
	parent.Merge(mk().Snapshot())
	parent.Merge(mk().Snapshot())
	if got := parent.Counter("events_total", "").Value(); got != 20 {
		t.Fatalf("merged counter = %d, want 20", got)
	}
	m, _ := parent.Snapshot().Get("lat")
	if m.Counts[0] != 2 || m.Counts[2] != 2 || m.Sum != 7 {
		t.Fatalf("merged histogram wrong: %+v", m)
	}
}

// TestMergeOrderInvariance pins the property the batch engine relies on:
// folding per-scenario registries in any completion order produces
// identical totals.
func TestMergeOrderInvariance(t *testing.T) {
	snaps := make([]Snapshot, 5)
	for i := range snaps {
		r := NewRegistry()
		r.Counter("n_total", "").Add(int64(i + 1))
		r.Histogram("h", "", []float64{2}).Observe(float64(i))
		snaps[i] = r.Snapshot()
	}
	forward, backward := NewRegistry(), NewRegistry()
	for i := range snaps {
		forward.Merge(snaps[i])
		backward.Merge(snaps[len(snaps)-1-i])
	}
	var fb, bb bytes.Buffer
	if err := forward.Snapshot().WritePrometheus(&fb); err != nil {
		t.Fatal(err)
	}
	if err := backward.Snapshot().WritePrometheus(&bb); err != nil {
		t.Fatal(err)
	}
	if fb.String() != bb.String() {
		t.Fatalf("merge order changed totals:\n%s\nvs\n%s", fb.String(), bb.String())
	}
}

// TestConcurrentSharedShape exercises the pattern parallel batch workers
// produce — many goroutines incrementing the same counters, gauges, and
// histogram buckets while another snapshots — and is the package's -race
// regression.
func TestConcurrentSharedShape(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Same metric names from every worker: shared-shape contention.
			c := r.Counter("scenarios_total", "")
			g := r.Gauge("inflight", "")
			h := r.Histogram("wall_seconds", "", []float64{0.001, 0.01, 0.1, 1})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 50)
				g.Add(-1)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			var b bytes.Buffer
			_ = r.Snapshot().WritePrometheus(&b)
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("scenarios_total", "").Value(); got != workers*perWorker {
		t.Fatalf("lost increments: %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("wall_seconds", "", nil).Count(); got != workers*perWorker {
		t.Fatalf("lost observations: %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("inflight", "").Value(); got != 0 {
		t.Fatalf("gauge CAS lost updates: %v, want 0", got)
	}
}

// TestHotPathAllocFree asserts the acceptance criterion directly: counter
// increments and histogram observes must not allocate.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", ExponentialBuckets(0.001, 2, 16))
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.02) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
	var nilC *Counter
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilC.Inc(); nilH.Observe(1) }); n != 0 {
		t.Fatalf("disabled instruments allocate %v/op", n)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(1, 2, 3)
	if lin[0] != 1 || lin[1] != 3 || lin[2] != 5 {
		t.Fatalf("linear buckets = %v", lin)
	}
	exp := ExponentialBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Fatalf("exponential buckets = %v", exp)
	}
}

// HELP text containing backslashes or newlines must be escaped per the
// Prometheus text-format rules; a raw newline would terminate the comment
// mid-string and corrupt every line after it.
func TestPrometheusHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "first line\nsecond line with a \\ backslash").Inc()
	r.Gauge("after", "must still parse").Set(1)

	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if want := `# HELP weird_total first line\nsecond line with a \\ backslash` + "\n"; !strings.Contains(out, want) {
		t.Fatalf("escaped HELP missing:\n%s", out)
	}
	// Every line must be a comment, a sample, or empty — no line may start
	// mid-help.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "weird_total") && !strings.HasPrefix(line, "after") {
			t.Fatalf("orphaned exposition line %q:\n%s", line, out)
		}
	}
}

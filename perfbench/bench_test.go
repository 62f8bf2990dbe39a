package main

import (
	"regexp"
	"testing"

	"repro/internal/core"
)

func TestEmulateDigestSerialEqualsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the emulate grid twice")
	}
	act, err := buildActors(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	serial := runPass(1, act, 1)
	parallel := runPass(1, act, 2)
	if serial.err != nil || parallel.err != nil {
		t.Fatal(serial.err, parallel.err)
	}
	s, p := gridDigest(serial.digests), gridDigest(parallel.digests)
	if s != p {
		t.Fatalf("serial digest %016x, parallel %016x", s, p)
	}
	if want := pinnedGridDigests[1]; s != want {
		t.Fatalf("seed 1 digest %016x, pinned %016x", s, want)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeAndMetricNames runs every workload briefly in both modes, then
// checks the metric names of BENCHMARK.json, that each workload prints
// every declared metric of its mode in the declared unit, and that each
// per-layer metric is measured (not filled in) by some workload.
func TestSmokeAndMetricNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
	}

	measured := map[string]bool{}
	dir := t.TempDir()
	for _, name := range []string{"emulate", "train", "serve"} {
		for _, traced := range []bool{false, true} {
			opts := options{seed: 3, seconds: 1, workers: 2, workDir: dir}
			if traced {
				opts.trace = newTracer()
			}
			out, err := workloads[name](opts)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(out.errs) > 0 || out.failed > 0 || out.attempted < 1 {
				t.Fatalf("%s traced=%v: attempted %d failed %d, checks %v", name, traced, out.attempted, out.failed, out.errs)
			}
			if !traced {
				out.set("peak_rss_mb", "MB", peakRSSMB())
			}
			for m := range out.metrics {
				measured[m] = true
			}
			if err := completeMetrics(out, spec, traced); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
			if traced && len(opts.trace.SelfTimes()) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("BENCHMARK.json declares %q, which no workload measures", m.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Better: "lower", Bound: 0.1}
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10, 10.1, 9.9}
	faster := []float64{8, 8.1, 7.9, 8, 8.2, 8, 7.8, 8.1, 8, 7.9}
	if _, v := verdict(parent, faster, lower); v != "improved" {
		t.Errorf("20%% faster on every pair: %s, want improved", v)
	}
	if _, v := verdict(parent, parent, lower); v != "no worse" {
		t.Errorf("identical runs: %s, want no worse", v)
	}
	slower := []float64{13, 13.1, 12.9, 13, 13.2, 13, 12.8, 13.1, 13, 12.9}
	if _, v := verdict(parent, slower, lower); v != "worse" {
		t.Errorf("30%% slower: %s, want worse", v)
	}
	noisy := []float64{5, 15, 6, 14, 5, 15, 6, 14, 5, 15}
	if _, v := verdict(noisy, noisy, lower); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := Provenance{CPUModel: "x", NumCPU: 2, GoMaxProcs: 2, GoVersion: "go1.24.0", Commit: "a"}
	b := a
	b.Commit = "b"
	if why := sameHost(a, b); why != "" {
		t.Errorf("different commits refused: %s", why)
	}
	b.GoMaxProcs = 1
	if sameHost(a, b) == "" {
		t.Error("different GOMAXPROCS accepted")
	}
}

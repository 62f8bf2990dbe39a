package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

func batchScenario(seed int64) Scenario {
	return Scenario{
		Seed: seed, RateBps: 20e6, BaseRTT: 0.04, QueueBDP: 1,
		Duration: 3,
		Flows:    []FlowSpec{{Scheme: "cubic"}, {Scheme: "cubic", Start: 0.5}},
	}
}

// summarize flattens the deterministic parts of a result for comparison.
func summarize(r *Result) string {
	s := ""
	for _, fr := range r.Flows {
		s += fmt.Sprintf("%s d=%d l=%d tput=%.6f rtt=%.9f;",
			fr.SchemeName, fr.DeliveredBytes, fr.LostBytes, fr.AvgTputBps, fr.AvgRTT)
	}
	s += fmt.Sprintf("util=%.9f maxq=%d arr=%d", r.Utilization, r.MaxQueue, r.Bottleneck.Arrived)
	return s
}

func TestRunBatchMatchesSerialInOrder(t *testing.T) {
	var scs []Scenario
	for i := 0; i < 6; i++ {
		scs = append(scs, batchScenario(int64(100+i)))
	}
	serial := make([]string, len(scs))
	for i, sc := range scs {
		serial[i] = summarize(MustRun(sc))
	}
	par, err := RunBatch(scs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(scs) {
		t.Fatalf("got %d results, want %d", len(par), len(scs))
	}
	for i, r := range par {
		if got := summarize(r); got != serial[i] {
			t.Errorf("slot %d diverged from serial run:\n par: %s\n ser: %s", i, got, serial[i])
		}
	}
}

func TestRunBatchSameSeedIdentical(t *testing.T) {
	scs := []Scenario{batchScenario(7), batchScenario(7)}
	rs, err := RunBatch(scs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := summarize(rs[0]), summarize(rs[1]); a != b {
		t.Fatalf("same-seed scenarios diverged:\n%s\n%s", a, b)
	}
}

func TestRunBatchPropagatesFirstErrorByIndex(t *testing.T) {
	scs := []Scenario{batchScenario(1), batchScenario(2), batchScenario(3)}
	scs[1].Flows = []FlowSpec{{Scheme: "no-such-scheme"}}
	scs[2].Flows = []FlowSpec{{Scheme: "also-missing"}}
	rs, err := RunBatch(scs, 3)
	if err == nil {
		t.Fatal("expected an error")
	}
	if want := "no-such-scheme"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err %q should be from index 1 (%s)", err, want)
	}
	if rs[0] == nil {
		t.Error("successful slot 0 missing from partial results")
	}
	if rs[1] != nil || rs[2] != nil {
		t.Error("failed slots should be nil")
	}
}

func TestForEachWorkerCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEachWorkerCtx(ctx, 1000, 2, func(_, i int) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancellation did not cut the batch short (ran %d)", n)
	}
}

func TestForEachSerialPath(t *testing.T) {
	var order []int
	err := ForEach(5, 1, func(i int) error {
		order = append(order, i) // safe: workers=1 runs inline
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path out of order: %v", order)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if w := Workers(0, 100); w < 1 {
		t.Fatalf("Workers(0, 100) = %d", w)
	}
	if w := Workers(8, 3); w != 3 {
		t.Fatalf("Workers(8, 3) = %d, want clamp to 3", w)
	}
	if w := Workers(2, 100); w != 2 {
		t.Fatalf("Workers(2, 100) = %d", w)
	}
}

// A failed Run must not credit its worker with the scenario's simulated
// time: the per-worker throughput counter would otherwise report virtual
// seconds that were never executed.
func TestRunBatchObservedNoSimCreditOnFailure(t *testing.T) {
	ok := batchScenario(11)
	bad := batchScenario(12)
	bad.Flows = []FlowSpec{{Scheme: "no-such-scheme"}}

	reg := telemetry.NewRegistry()
	// One worker, so all per-worker attribution lands on worker 0.
	_, err := RunBatchObserved(context.Background(), []Scenario{ok, bad}, 1, reg)
	if err == nil {
		t.Fatal("expected the failing scenario's error")
	}
	snap := reg.Snapshot()
	sim, found := snap.Get("runner_worker_0_sim_milliseconds_total")
	if !found {
		t.Fatal("worker 0 sim counter missing")
	}
	if want := int64(ok.Duration * 1000); sim.Count != want {
		t.Fatalf("worker 0 credited %d ms of sim time, want %d (only the successful scenario)", sim.Count, want)
	}
	// Completion counters still see both scenarios.
	scen, _ := snap.Get("runner_worker_0_scenarios_total")
	if scen.Count != 2 {
		t.Fatalf("worker 0 completed %d scenarios, want 2", scen.Count)
	}
	completed, _ := snap.Get("runner_scenarios_completed_total")
	if completed.Count != 2 {
		t.Fatalf("completed %d, want 2", completed.Count)
	}
}

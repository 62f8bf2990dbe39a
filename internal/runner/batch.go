package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netem"
	"repro/internal/telemetry"
)

// The batch engine fans independent scenarios across a worker pool. Each
// scenario builds its own Simulator, topology and flows from its seed, so a
// worker goroutine shares no mutable state with any other; results are
// written into a slot indexed by submission position, which makes batch
// output byte-identical to a serial loop regardless of completion order.

// simMillis accumulates simulated virtual time completed by Run across the
// whole process, in milliseconds. Benchmarks read it through SimSeconds to
// report simulated-seconds-per-wall-second.
var simMillis atomic.Int64

// SimSeconds returns the total simulated time executed by Run since process
// start. Sample it before and after a workload to compute simulated-seconds
// per wall-second.
func SimSeconds() float64 { return float64(simMillis.Load()) / 1000 }

// Workers resolves a worker-count setting: values <= 0 select
// GOMAXPROCS, and the count is clamped to n so tiny batches do not spawn
// idle goroutines.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// RunBatch executes every scenario, fanning them across workers goroutines
// (workers <= 0 selects GOMAXPROCS), and returns results in submission
// order. If any scenario fails, the first error by submission index is
// returned alongside the partial results (failed slots are nil).
func RunBatch(scenarios []Scenario, workers int) ([]*Result, error) {
	return RunBatchObserved(context.Background(), scenarios, workers, nil)
}

// RunBatchObserved is RunBatch with cancellation and live batch telemetry
// on reg. Once ctx is done, no new scenarios are started (in-flight ones
// finish), skipped slots stay nil, and ctx.Err is reported if no scenario
// error preceded it. A nil reg runs the plain batch with no telemetry.
// Otherwise two kinds of metrics are produced:
//
//   - Batch progress, written directly to reg as scenarios start and
//     finish: started/completed counters, an in-flight gauge, a wall-time
//     histogram, and per-worker scenario/sim-time counters
//     (runner_worker_<i>_*) exposing each pool worker's throughput. These
//     are live — a /metrics scrape mid-batch shows current progress — but
//     per-worker attribution depends on scheduling, so only the totals are
//     deterministic.
//
//   - Per-layer scenario metrics (sim/netem/transport): each scenario runs
//     against its own private registry, so parallel workers never contend
//     on hot-path counters, then the private registries are merged into reg
//     in submission order once the batch completes. Merging is commutative
//     (counters and histograms add), so the merged totals are identical for
//     any worker count.
//
// Scenario results remain byte-identical to RunBatch for any worker count,
// with or without reg.
func RunBatchObserved(ctx context.Context, scenarios []Scenario, workers int, reg *telemetry.Registry) ([]*Result, error) {
	n := len(scenarios)
	if reg == nil {
		results := make([]*Result, n)
		err := ForEachWorkerCtx(ctx, n, workers, func(_, i int) error {
			r, err := Run(scenarios[i])
			if err != nil {
				return err
			}
			results[i] = r
			return nil
		})
		return results, err
	}
	w := Workers(workers, n)
	started := reg.Counter("runner_scenarios_started_total", "scenarios claimed by a worker")
	completed := reg.Counter("runner_scenarios_completed_total", "scenarios finished (including failures)")
	inflight := reg.Gauge("runner_batch_inflight", "scenarios currently executing")
	reg.Gauge("runner_batch_workers", "resolved worker-pool size of the latest batch").Set(float64(w))
	submitted := reg.Counter("runner_scenarios_submitted_total", "scenarios submitted to batches")
	submitted.Add(int64(n))
	wall := reg.Histogram("runner_scenario_wall_seconds", "wall-clock time per scenario",
		telemetry.ExponentialBuckets(0.001, 2, 18)) // 1 ms .. ~2 min
	perWorkerScen := make([]*telemetry.Counter, w)
	perWorkerSim := make([]*telemetry.Counter, w)
	for i := 0; i < w; i++ {
		perWorkerScen[i] = reg.Counter(fmt.Sprintf("runner_worker_%d_scenarios_total", i),
			"scenarios completed by this pool worker")
		perWorkerSim[i] = reg.Counter(fmt.Sprintf("runner_worker_%d_sim_milliseconds_total", i),
			"simulated time executed by this pool worker")
	}

	children := make([]*telemetry.Registry, n)
	results := make([]*Result, n)
	err := ForEachWorkerCtx(ctx, n, w, func(worker, i int) error {
		started.Inc()
		inflight.Add(1)
		begin := time.Now()
		sc := scenarios[i]
		sc.Telemetry = telemetry.NewRegistry()
		r, runErr := Run(sc)
		wall.Observe(time.Since(begin).Seconds())
		inflight.Add(-1)
		completed.Inc()
		perWorkerScen[worker].Inc()
		if runErr != nil {
			// A failed Run executed little or none of the scenario's virtual
			// time; crediting the full duration would inflate this worker's
			// throughput counter.
			return runErr
		}
		perWorkerSim[worker].Add(int64(sc.Duration * 1000))
		results[i] = r
		children[i] = sc.Telemetry
		return nil
	})
	for _, child := range children {
		if child != nil {
			reg.Merge(child.Snapshot())
		}
	}
	return results, err
}

// InstrumentProcess registers the process-wide metrics that cannot live in
// a per-run registry because the state they read is shared by every
// scenario in the process: packet-pool heap allocations (the pool is one
// sync.Pool) and the total simulated time executed by Run. Binaries call
// this once on their top-level registry; values are sampled lazily at
// snapshot/scrape time.
func InstrumentProcess(reg *telemetry.Registry) {
	reg.GaugeFunc("netem_packet_pool_allocs", "packets heap-allocated because the pool had no recycled one",
		func() float64 { return float64(netem.PacketPoolAllocs()) })
	reg.GaugeFunc("runner_sim_seconds", "total simulated time executed by Run since process start", SimSeconds)
	reg.GaugeFunc("process_gomaxprocs", "GOMAXPROCS at scrape time",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
}

// ForEach runs fn(0..n-1) across a pool of workers goroutines and returns
// the error from the lowest index that failed (all indices are still
// attempted). It is the building block for experiment sweeps whose jobs are
// not plain Scenarios (hand-built topologies, multi-bottleneck runs).
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachWorkerCtx(context.Background(), n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorkerCtx is ForEach with cancellation and the worker identity.
// Once ctx is done no new indices are claimed; claimed indices run to
// completion. It returns the error from the lowest failed index, or ctx.Err
// if the batch was cut short without an fn error. fn receives
// (worker, index) where worker ∈ [0, Workers(workers, n)). Worker-to-index
// assignment is scheduling-dependent; use it only for observability (e.g.
// per-worker throughput counters), never to influence results.
func ForEachWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		// Inline serial path: no goroutines, no synchronization.
		var firstErr error
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			if err := fn(0, i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return firstErr
		}
		return ctx.Err()
	}

	var (
		next   atomic.Int64
		errMu  sync.Mutex
		errIdx = n
		runErr error
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					errMu.Lock()
					if i < errIdx {
						errIdx, runErr = i, err
					}
					errMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if runErr != nil {
		return runErr
	}
	return ctx.Err()
}

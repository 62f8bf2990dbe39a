// Command astraea-pilot closes the learning loop in production shape:
// continuous training, a regression gate against the serving incumbent,
// sealed generation artifacts with bounded history, hot promotion into a
// live astraea-serve fleet, and instant rollback when the fleet's own
// telemetry shows the new policy regressing.
//
// The pilot promotes by atomically publishing the sealed artifact to the
// weights file an `astraea-serve -reload` daemon watches, then confirms the
// swap by scraping serve_policy_generation off the daemon's /metrics
// endpoint. Health during probation is read from the same endpoint
// (serve_requests_total vs serve_fallback_total).
//
// Examples:
//
//	# terminal 1: the serving fleet, watching a weights file
//	astraea-serve -policy serving.policy -listen 127.0.0.1:9000 \
//	    -reload 100ms -pprof 127.0.0.1:9090
//
//	# terminal 2: the closed loop — train, gate, promote, watch, roll back
//	astraea-pilot -promote serving.policy -serve-metrics http://127.0.0.1:9090/metrics \
//	    -dir gens -rounds 8 -episodes-per-round 25 -checkpoint pilot.ckpt
//
// Gate floors default to the paper-motivated regression bars (candidate
// must retain ≥95% of incumbent utilization and Jain fairness, ≤110% of its
// RTT). `-gate-min-jain 1.5` is a handy way to force a refusal when
// rehearsing the failure path.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/pilot"
	"repro/internal/rl"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetryhttp"
	"repro/internal/tournament"
)

func main() {
	// Serving fleet.
	promote := flag.String("promote", "", "serving weights file to promote into (the file astraea-serve -reload watches; required)")
	serveMetrics := flag.String("serve-metrics", "", "fleet /metrics URL for promotion confirmation and probation health (e.g. http://127.0.0.1:9090/metrics)")
	confirmTimeout := flag.Duration("confirm-timeout", 5*time.Second, "how long to wait for the fleet to confirm a promoted generation (0 = publish blind)")

	// Generation store.
	dir := flag.String("dir", "pilot-gens", "generation store directory (manifest + sealed artifacts)")
	keepGens := flag.Int("keep-generations", 8, "sealed generations to keep on disk (serving generation and its parent always survive)")

	// Training loop.
	episodesPerRound := flag.Int("episodes-per-round", 25, "episodes trained between gate evaluations")
	rounds := flag.Int("rounds", 4, "gate evaluations to run before exiting")
	workers := flag.Int("workers", 4, "parallel environment instances (also the gate's replay workers)")
	seed := flag.Int64("seed", 1, "random seed")
	reward := flag.String("reward", "", "reward strategy: paper (default), aurora, maxmin, alpha[:a]")
	rlHidden := flag.String("rl-hidden", "", "actor/critic hidden sizes as a comma list (e.g. 32,32; empty = library default)")
	episodeDuration := flag.Float64("episode-duration", 0, "seconds simulated per training episode (0 = distribution default of 30)")
	maxFlows := flag.Int("max-flows", 0, "cap on flows per training episode (0 = distribution default of 5)")
	checkpoint := flag.String("checkpoint", "", "crash-safe training checkpoint path (resumed automatically when it exists)")
	checkpointEvery := flag.Int("checkpoint-every", 25, "episodes between checkpoint writes when -checkpoint is set")
	checkpointKeep := flag.Int("checkpoint-keep", 3, "rotated episode-numbered checkpoint copies to keep (plus the promoted pin; 0 = single file)")

	// Regression gate.
	gateFamilies := flag.String("gate-families", "", "comma list of scenario families for the gate suite (empty = all)")
	gateFlows := flag.Int("gate-flows", 8, "flows per gate scenario")
	gateDuration := flag.Float64("gate-duration", 5, "seconds simulated per gate scenario")
	gateSeed := flag.Int64("gate-seed", 42, "seed of the fixed gate suite")
	gateUtilFloor := flag.Float64("gate-util-floor", tournament.DefaultGateFloors().UtilRatio, "candidate/incumbent utilization ratio floor")
	gateJainFloor := flag.Float64("gate-jain-floor", tournament.DefaultGateFloors().JainRatio, "candidate/incumbent Jain index ratio floor")
	gateRTTCeiling := flag.Float64("gate-rtt-ceiling", tournament.DefaultGateFloors().RTTRatio, "candidate/incumbent mean RTT ratio ceiling")
	gateMinUtil := flag.Float64("gate-min-util", 0, "absolute utilization floor (0 = disabled)")
	gateMinJain := flag.Float64("gate-min-jain", 0, "absolute Jain index floor (0 = disabled)")

	// Probation.
	probation := flag.Float64("probation", pilot.DefaultHealthPolicy().ProbationSeconds, "seconds to watch fleet health after each promotion (0 = skip)")
	healthInterval := flag.Float64("health-interval", pilot.DefaultHealthPolicy().IntervalSeconds, "seconds between probation health samples")
	healthMinRequests := flag.Int64("health-min-requests", pilot.DefaultHealthPolicy().MinRequests, "minimum requests per window before judging health")
	healthMaxDegraded := flag.Float64("health-max-degraded", pilot.DefaultHealthPolicy().MaxDegradedRate, "fallback-rate above which a window counts as regressed")

	// Observability.
	telemetryOut := flag.String("telemetry", "", "write a telemetry snapshot to this path at exit (.json = JSON, else Prometheus text)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and live /metrics on this address")
	flag.Parse()

	if *promote == "" {
		fmt.Fprintln(os.Stderr, "astraea-pilot: -promote is required (the weights file the serving fleet watches)")
		os.Exit(1)
	}

	reg := telemetry.NewRegistry()
	runner.InstrumentProcess(reg)
	if *pprofAddr != "" {
		bound, stop, err := telemetryhttp.Serve(*pprofAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "astraea-pilot: serving pprof and /metrics on http://%s\n", bound)
	}

	cfg := core.DefaultConfig()
	strategy, err := core.NewRewardStrategy(*reward)
	if err != nil {
		fatal(err)
	}
	cfg.Reward = strategy.Name()

	dist := env.DefaultTrainingDistribution()
	if *episodeDuration > 0 {
		dist.EpisodeDuration = *episodeDuration
	}
	if *maxFlows > 0 {
		dist.MaxFlows = *maxFlows
		if dist.MinFlows > dist.MaxFlows {
			dist.MinFlows = dist.MaxFlows
		}
	}

	learner, err := buildLearner(cfg, dist, *rlHidden, *checkpoint, *seed, *workers)
	if err != nil {
		fatal(err)
	}
	learner.Instrument(reg)

	store, err := pilot.OpenStore(*dir, *keepGens)
	if err != nil {
		fatal(err)
	}

	gate := tournament.GateConfig{
		Flows:    *gateFlows,
		Duration: *gateDuration,
		Seed:     *gateSeed,
		Workers:  *workers,
		Floors: tournament.GateFloors{
			UtilRatio: *gateUtilFloor,
			JainRatio: *gateJainFloor,
			RTTRatio:  *gateRTTCeiling,
			MinUtil:   *gateMinUtil,
			MinJain:   *gateMinJain,
		},
	}
	if *gateFamilies != "" {
		gate.Families = splitList(*gateFamilies)
	}

	sup, err := pilot.New(pilot.Options{
		Store:   store,
		Learner: learner,
		Target: &pilot.FileTarget{
			ServingPath:    *promote,
			MetricsURL:     *serveMetrics,
			ConfirmTimeout: *confirmTimeout,
		},
		EpisodesPerRound: *episodesPerRound,
		Rounds:           *rounds,
		Gate:             gate,
		Health: pilot.HealthPolicy{
			ProbationSeconds: *probation,
			IntervalSeconds:  *healthInterval,
			MinRequests:      *healthMinRequests,
			MaxDegradedRate:  *healthMaxDegraded,
		},
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *checkpointEvery,
		CheckpointKeep:  *checkpointKeep,
		Registry:        reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "astraea-pilot: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runErr := sup.Run(ctx)

	if *telemetryOut != "" {
		if err := telemetry.WriteFile(*telemetryOut, reg); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "astraea-pilot: wrote telemetry snapshot to %s\n", *telemetryOut)
	}
	if runErr != nil && runErr != context.Canceled {
		fatal(runErr)
	}
	if cur, ok := store.Current(); ok {
		fmt.Printf("serving generation %d (parent %d, %s) after %d episodes\n",
			cur.Gen, cur.Parent, cur.Status, learner.Episodes)
	}
}

// buildLearner resumes the parallel learner from the checkpoint when one
// exists, otherwise builds a fresh one (optionally with custom hidden
// sizes for smoke-scale runs).
func buildLearner(cfg core.Config, dist env.TrainingDistribution, hidden, ckptPath string, seed int64, workers int) (*env.ParallelLearner, error) {
	if ckptPath != "" {
		if _, err := os.Stat(ckptPath); err == nil {
			l, err := env.LoadParallelLearner(ckptPath, workers)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "astraea-pilot: resumed from %s at episode %d (strategy %s)\n",
				ckptPath, l.Episodes, l.StrategyName())
			return l, nil
		}
	}
	if hidden == "" {
		return env.NewParallelLearner(cfg, dist, seed, workers), nil
	}
	rlCfg := rl.DefaultConfig(cfg.StateDim(), core.GlobalFeatureDim, 1)
	rlCfg.Hidden = nil
	for _, part := range splitList(hidden) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("astraea-pilot: bad -rl-hidden entry %q", part)
		}
		rlCfg.Hidden = append(rlCfg.Hidden, n)
	}
	return env.NewParallelLearnerRL(cfg, dist, rlCfg, 50000, seed, workers), nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "astraea-pilot:", err)
	os.Exit(1)
}

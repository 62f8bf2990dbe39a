package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// The train workload runs env.ParallelLearner at the paper's Table 4
// defaults (256/128/64 networks, batch 192, 6 rounds of 20 updates per
// 30 s episode) with one worker per CPU. The TD3 update dominates: the
// workers simulate the next episodes while the learner updates.

// refEpisodeSeconds is the wall time of one episode's learner round on the
// 2-vCPU Intel Xeon the benchmark was sized on. It only turns
// --seconds into a fixed episode count, so both sides of a comparison run
// the same work.
const refEpisodeSeconds = 15.0

// trainEpisodes is the run's episode count: enough learner rounds to fill
// --seconds, at least two.
func trainEpisodes(seconds float64) int {
	return max(2, int(math.Round(seconds/refEpisodeSeconds)))
}

func runTrain(opts options) (*outcome, error) {
	out := &outcome{}
	learner, setupS, err := timeSetup(5, func() (*env.ParallelLearner, error) {
		return env.NewParallelLearner(core.DefaultConfig(), env.DefaultTrainingDistribution(), opts.seed, opts.workers), nil
	})
	if err != nil {
		return nil, err
	}
	// The learner's telemetry is always on (atomic counters): its episode
	// counter marks when the learner took the first finished episode,
	// which is when its first round of updates began.
	reg := telemetry.NewRegistry()
	learner.Instrument(reg)
	received := reg.Counter("env_episodes_total", "")

	episodes := trainEpisodes(opts.seconds)
	root := opts.trace.Begin(0, "telemetry", "train", fmt.Sprintf("seed-%d", opts.seed))
	trainSpan := opts.trace.Begin(root, "env", "ParallelLearner.Train", "")
	// The learner goroutine calls AfterEpisode once an episode's update
	// rounds are done; its timestamps bound each learner round.
	var rounds []time.Time
	start := time.Now()
	first := make(chan time.Time, 1)
	stop := make(chan struct{})
	go func() {
		for received.Value() == 0 {
			select {
			case <-stop:
				close(first)
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
		first <- time.Now()
	}()
	learner.AfterEpisode = func(int) { rounds = append(rounds, time.Now()) }
	history := learner.Train(episodes)
	wall := time.Since(start).Seconds()
	close(stop)
	firstRound, ok := <-first
	opts.trace.End(trainSpan)
	roundStart := firstRound
	for i, end := range rounds {
		opts.trace.Record(trainSpan, "rl", "learner-round", fmt.Sprintf("episode-%d", i+1), roundStart, end)
		roundStart = end
	}

	out.attempted = int64(episodes)
	out.failed = int64(episodes - len(history))
	if len(history) != episodes || learner.Episodes != episodes {
		out.fail("%d of %d episodes completed", len(history), episodes)
	}
	for i, r := range history {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			out.fail("episode %d reward %v is not finite", i+1, r)
		}
	}
	t := learner.Trainer
	for name, net := range map[string]*nn.MLP{"actor": t.Actor, "critic1": t.Critic1, "critic2": t.Critic2} {
		if !finiteWeights(net) {
			out.fail("%s has a non-finite weight", name)
		}
	}
	// Reported, not gated: at these defaults the critic loss diverges
	// within a few episodes, a known defect of the trainer.
	out.diag("final_critic_loss", t.LastCriticLoss)
	out.diag("mean_reward", mean(history))

	if opts.trace != nil {
		traceTrain(opts, learner, reg, root, wall, out)
		opts.trace.End(root)
		return out, nil
	}
	if !ok || len(rounds) == 0 {
		out.fail("the learner completed %d rounds", len(rounds))
		return out, nil
	}
	// Steady-state rate: from the start of the learner's first round,
	// which excludes the workers' priming episodes, to the end of its last.
	// The unit of work is an episode; an operation is one learner round,
	// the updates that consume one episode.
	total := rounds[len(rounds)-1].Sub(firstRound).Seconds()
	walls := make([]float64, len(rounds))
	for i, end := range rounds {
		walls[i] = ms(end.Sub(firstRound))
		firstRound = end
	}
	out.set("setup_s", "s", setupS)
	out.set("throughput", "work/s", float64(len(rounds))/total)
	out.set("latency_ms", "ms", median(walls))
	return out, nil
}

func finiteWeights(m *nn.MLP) bool {
	for _, l := range m.Layers {
		for _, v := range l.W {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		for _, v := range l.B {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// traceTrain derives the per-layer numbers after training: the learner's
// own telemetry, then direct timed calls into rl, env and nn on the
// trained state.
func traceTrain(opts options, learner *env.ParallelLearner, reg *telemetry.Registry, root int64, wall float64, out *outcome) {
	tr := opts.trace
	snap := reg.Snapshot()
	m, _ := snap.Get("rl_update_steps_total")
	updates := float64(m.Count)
	out.set("rl.updates", "count", updates)

	// TD3 updates, alternately without and with a span around the call:
	// the difference is the tracing overhead on the dominant layer.
	const k = 10
	t := learner.Trainer
	t.Update(learner.Replay) // warm caches before either timing
	var plain, durs []float64
	for i := 0; i < 2*k; i++ {
		s := time.Now()
		if i%2 == 0 {
			t.Update(learner.Replay)
			plain = append(plain, time.Since(s).Seconds())
			continue
		}
		id := tr.Begin(root, "rl", "Trainer.Update", fmt.Sprintf("update-%d", i/2))
		t.Update(learner.Replay)
		tr.End(id)
		durs = append(durs, time.Since(s).Seconds())
	}
	updateS := median(durs)
	out.set("rl.update_ms", "ms", updateS*1000)
	out.set("rl.update_share", "ratio", updates*updateS/wall)
	out.set("telemetry.overhead_frac", "ratio", median(durs)/median(plain)-1)

	// Episode simulation, timed directly on configurations drawn the way
	// the learner draws them.
	rng := rand.New(rand.NewSource(opts.seed))
	var eps []float64
	for i := 0; i < 2; i++ {
		ec := learner.Dist.Sample(rng)
		s := time.Now()
		id := tr.Begin(root, "env", "RunEpisode", fmt.Sprintf("episode-%d", i))
		env.RunEpisode(ec, learner.Cfg, learner.SnapshotActor(), rng.Int63(), nil, &env.Exploration{Stddev: 0.1}, nil)
		tr.End(id)
		eps = append(eps, time.Since(s).Seconds())
	}
	out.set("env.episode_s.mean", "s", mean(eps))
	out.set("env.episode_s.max", "s", maxOf(eps))
	busy := float64(learner.Episodes) * mean(eps)
	out.set("env.worker_idle_frac", "ratio", 1-busy/(float64(learner.Workers)*wall))

	// The TD3 update's kernels at its batch size, on a critic-shaped net.
	critic := t.Critic1.Clone()
	in := make([]float64, critic.InDim())
	for i := range in {
		in[i] = rng.Float64()
	}
	const batch = 192
	s := time.Now()
	for i := 0; i < batch; i++ {
		sink += critic.Forward(in)[0]
	}
	e := time.Now()
	tr.Record(root, "nn", "Forward.b192", "", s, e)
	out.set("nn.forward_us.float_b192", "us", float64(e.Sub(s).Nanoseconds())/1e3)
	critic.ZeroGrad()
	grad := []float64{1}
	var back time.Duration
	for i := 0; i < batch; i++ {
		critic.Forward(in)
		s := time.Now()
		critic.Backward(grad)
		back += time.Since(s)
	}
	out.set("nn.backward_us.b192", "us", float64(back.Nanoseconds())/1e3)
	opt := nn.NewAdam(0.001)
	s = time.Now()
	for i := 0; i < k; i++ {
		opt.Step(critic, batch)
	}
	e = time.Now()
	tr.Record(root, "nn", "Adam.Step", "", s, e)
	out.set("nn.adam_step_us", "us", float64(e.Sub(s).Nanoseconds())/1e3/k)
}

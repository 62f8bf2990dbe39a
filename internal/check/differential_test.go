package check

// Differential tests: the batch engine must be a pure speedup. Serial
// execution and runner.RunBatch at any worker count must produce
// bit-for-bit identical results on *randomly generated* grids — the
// curated figure tables elsewhere only cover the parameter corners the
// paper happened to pick.

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/netem"
	"repro/internal/runner"
)

// digest folds every numeric output of a result into one FNV-64 hash,
// using exact IEEE-754 bits so "close enough" can never pass.
func digest(res *runner.Result) uint64 {
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	f64(res.Utilization)
	u64(uint64(res.MaxQueue))
	st := res.Bottleneck
	for _, v := range []int64{st.Arrived, st.Delivered, st.TailDrops, st.AQMDrops, st.RandomDrops, st.BytesOut} {
		u64(uint64(v))
	}
	for _, fr := range res.Flows {
		h.Write([]byte(fr.SchemeName))
		u64(uint64(fr.DeliveredBytes))
		u64(uint64(fr.LostBytes))
		u64(uint64(fr.LostPackets))
		f64(fr.AvgTputBps)
		f64(fr.AvgRTT)
		f64(fr.MinRTT)
		f64(fr.LossRate)
		for _, v := range fr.Tput.Values {
			f64(v)
		}
		for _, v := range fr.RTT.Values {
			f64(v)
		}
	}
	return h.Sum64()
}

// grid generates n random scenarios from consecutive generator seeds,
// trimmed to keep the differential suite fast.
func grid(baseSeed int64, n int) []runner.Scenario {
	scs := make([]runner.Scenario, n)
	for i := range scs {
		sc := NewGenerator(baseSeed + int64(i)).Scenario()
		if sc.Duration > 3 {
			sc.Duration = 3
		}
		scs[i] = sc
	}
	return scs
}

func TestSerialBatchByteIdenticalRandomGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a random grid three times; run without -short")
	}
	scs := grid(5000, 12)

	serial := make([]uint64, len(scs))
	for i, sc := range scs {
		serial[i] = digest(runner.MustRun(sc))
	}
	for _, workers := range []int{2, 5} {
		rs, err := runner.RunBatch(scs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range rs {
			if d := digest(r); d != serial[i] {
				t.Errorf("workers=%d scenario %d (seed %d): digest %x != serial %x",
					workers, i, scs[i].Seed, d, serial[i])
			}
		}
	}
}

// TestRunIsPureFunctionOfScenario: the same scenario run twice in the same
// process must be bitwise identical — no hidden process-global state may
// leak into results (the regression PR 1 fixed, now guarded on random
// scenarios rather than curated tables).
func TestRunIsPureFunctionOfScenario(t *testing.T) {
	for seed := int64(9000); seed < 9006; seed++ {
		sc := NewGenerator(seed).Scenario()
		if sc.Duration > 3 {
			sc.Duration = 3
		}
		a := digest(runner.MustRun(sc))
		b := digest(runner.MustRun(sc))
		if a != b {
			t.Errorf("seed %d: same scenario diverged across runs: %x vs %x", seed, a, b)
		}
	}
}

// TestAQMScenarioReuseDeterministic is the regression for the shared
// stateful-discipline bug this suite uncovered: a Scenario holding a *RED
// or *CoDel instance, run twice (or fanned across workers), used to bleed
// EWMA/drop-schedule state — and RED's RNG hook — between runs.
func TestAQMScenarioReuseDeterministic(t *testing.T) {
	for _, disc := range []netem.QueueDiscipline{
		&netem.RED{MinThresholdBytes: 8_000, MaxThresholdBytes: 30_000, MaxProb: 0.3},
		netem.NewCoDel(),
	} {
		sc := runner.Scenario{
			Seed: 77, RateBps: 10e6, BaseRTT: 0.030, QueueBytes: 60_000,
			Duration: 4, Discipline: disc,
			Flows: []runner.FlowSpec{{Scheme: "cubic"}, {Scheme: "reno", Start: 0.5}},
		}
		a := digest(runner.MustRun(sc))
		b := digest(runner.MustRun(sc))
		if a != b {
			t.Errorf("%T: scenario reuse diverged: %x vs %x", disc, a, b)
		}
		rs, err := runner.RunBatch([]runner.Scenario{sc, sc, sc}, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if d := digest(r); d != a {
				t.Errorf("%T: batch slot %d diverged from serial: %x vs %x", disc, i, d, a)
			}
		}
	}
}

// TestCheckerDoesNotPerturbResults: attaching the invariant checker must
// not change a single output bit — otherwise running checked in CI and
// unchecked in experiments would validate a different system.
func TestCheckerDoesNotPerturbResults(t *testing.T) {
	for seed := int64(9100); seed < 9104; seed++ {
		plain := NewGenerator(seed).Scenario()
		if plain.Duration > 3 {
			plain.Duration = 3
		}
		checked := plain
		c := NewChecker()
		c.Attach(&checked)

		a := digest(runner.MustRun(plain))
		res := runner.MustRun(checked)
		if vs := c.Finish(res); len(vs) > 0 {
			t.Fatalf("seed %d: violations during perturbation test: %v", seed, vs)
		}
		if b := digest(res); a != b {
			t.Errorf("seed %d: checker perturbed results: %x vs %x", seed, a, b)
		}
	}
}

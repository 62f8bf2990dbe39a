package main

import (
	"repro/internal/core"
)

// actors holds the three policy forms the benchmark drives: the float
// distilled actor and its quantized compile (the reference policy is the
// registered "astraea" scheme and needs no set-up).
type actors struct {
	float *core.MLPPolicy
	quant *core.QuantizedPolicy
}

// distillOptions is the paper-sized (256/128/64) actor with the trimmed
// distillation budget scripts/bench-serve.sh uses: serving and simulation
// cost depend on the network's shape, not on how well it imitates, and
// the default budget takes minutes. The distillation seed is fixed: the
// actor is the deployed artifact, the same for every workload seed, so
// the workload seed varies only the inputs it is run on.
func distillOptions() core.DistillOptions {
	opts := core.DefaultDistillOptions()
	opts.Samples = 4000
	opts.Epochs = 3
	return opts
}

// buildActors distills the reference policy into an actor and compiles it
// to the quantized serving form.
func buildActors(cfg core.Config) (actors, error) {
	net, _ := core.DistillPolicy(cfg, distillOptions())
	fp := &core.MLPPolicy{Net: net}
	qp, err := core.QuantizeMLPPolicy(fp, cfg)
	if err != nil {
		return actors{}, err
	}
	return actors{float: fp, quant: qp}, nil
}

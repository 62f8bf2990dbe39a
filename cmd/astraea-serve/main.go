// Command astraea-serve is the production policy inference daemon: the
// shared batched service of §4 behind real network transports, with
// per-request deadlines, admission control, a deterministic fallback
// action, hot policy reload, and graceful drain.
//
// Transports: TCP and unix stream sockets speak the length-prefixed framing
// of internal/serve; udp and unixgram endpoints speak the bare core codec,
// one request per datagram. Every response carries a flags/version trailer
// after the 16 codec bytes, which base-codec decoders can ignore.
//
// Policy artifacts: -policy accepts "reference", JSON actor weights, or a
// quantized blob from cmd/astraea-quantize. JSON weights are compiled to
// the fixed-point serving form at load by default (several times faster
// per inference, see DESIGN.md §12); -float keeps the float64 network —
// the equivalence oracle — instead. Blobs always serve quantized.
//
// Examples:
//
//	astraea-serve -listen tcp:127.0.0.1:9000 -policy reference
//	astraea-serve -listen tcp::9000,unixgram:/tmp/astraea.sock \
//	    -policy actor.json -reload 1s -deadline 10ms -telemetry :9090
//	astraea-serve -listen tcp::9000 -policy actor.aqp
//
// Signals: SIGHUP reloads the policy file in place (version bump, no
// dropped requests); SIGINT/SIGTERM drain gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetryhttp"
)

func main() {
	listen := flag.String("listen", "tcp:127.0.0.1:9000",
		"comma-separated endpoints, each network:address (tcp:host:port, unix:/path, udp:host:port, unixgram:/path)")
	policyArg := flag.String("policy", "reference", `"reference", a path to JSON actor weights, or a quantized blob (astraea-quantize)`)
	floatPath := flag.Bool("float", false, "serve JSON actor weights as float64 instead of compiling them to the quantized fixed-point form")
	reload := flag.Duration("reload", 0,
		"poll the -policy file at this interval and hot-reload on change (0 disables; SIGHUP always reloads)")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics and /debug/pprof on this address (e.g. :9090)")
	pprofAddr := flag.String("pprof", "", "alias for -telemetry (the endpoint includes pprof)")
	shards := flag.Int("shards", 0, "policy shards, each with its own evaluator and cloned policy (default GOMAXPROCS, capped at 16)")
	queueDepth := flag.Int("queue-depth", 256, "per-shard admission queue depth (overflow is shed)")
	deadline := flag.Duration("deadline", 20*time.Millisecond, "per-request budget before the fallback action is returned")
	window := flag.Duration("window", 5*time.Millisecond, "batching window of the shared service")
	maxBatch := flag.Int("max-batch", 256, "batch flush threshold")
	addrFile := flag.String("addr-file", "", "write the bound endpoints (one network:address per line) to this file")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a graceful drain may take before connections are cut")
	flag.Parse()

	if err := run(*listen, *policyArg, *floatPath, *reload, *telemetryAddr, *pprofAddr,
		*shards, *queueDepth, *deadline, *window, *maxBatch, *addrFile, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "astraea-serve:", err)
		os.Exit(1)
	}
}

func run(listen, policyArg string, floatPath bool, reload time.Duration, telemetryAddr, pprofAddr string,
	shards, queueDepth int, deadline, window time.Duration, maxBatch int,
	addrFile string, drainTimeout time.Duration) error {

	cfg := core.DefaultConfig()
	var policy core.Policy
	policyPath := ""
	if policyArg == "reference" {
		policy = core.NewReferencePolicy(cfg)
	} else {
		p, err := core.LoadServingPolicy(policyArg, cfg, !floatPath)
		if err != nil {
			return err
		}
		policy = p
		policyPath = policyArg
		if qp, ok := p.(*core.QuantizedPolicy); ok {
			fmt.Printf("astraea-serve: serving quantized policy (%d layers, %d parameter bytes)\n",
				qp.Q.NumLayers(), qp.Q.ParamBytes())
		} else {
			fmt.Println("astraea-serve: serving float64 policy (-float oracle path)")
		}
	}

	svc := core.NewService(cfg, policy)
	svc.BatchWindow = window
	svc.MaxBatch = maxBatch
	srv := serve.NewServer(svc, cfg, serve.Options{
		Shards:     shards,
		QueueDepth: queueDepth,
		Deadline:   deadline,
	})
	reg := telemetry.NewRegistry()
	srv.Instrument(reg)

	var reloader *serve.Reloader
	if policyPath != "" {
		reloader = serve.NewReloader(srv, policyPath, cfg)
		reloader.Quantize = !floatPath
		reloader.Instrument(reg)
		if reload > 0 {
			reloader.Interval = reload
			reloader.Watch()
			defer reloader.Stop()
		}
	}

	if telemetryAddr == "" {
		telemetryAddr = pprofAddr
	}
	if telemetryAddr != "" {
		bound, closeHTTP, err := telemetryhttp.Serve(telemetryAddr, reg)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer closeHTTP()
		fmt.Printf("astraea-serve: telemetry and pprof on http://%s/\n", bound)
	}

	var boundLines []string
	for _, spec := range strings.Split(listen, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		network, address, ok := strings.Cut(spec, ":")
		if !ok {
			return fmt.Errorf("bad -listen entry %q (want network:address)", spec)
		}
		addr, err := srv.Listen(network, address)
		if err != nil {
			return err
		}
		fmt.Printf("astraea-serve: listening on %s:%s (deadline %v, %d shards)\n",
			network, addr, deadline, srv.Sharded().NumShards())
		boundLines = append(boundLines, network+":"+addr.String())
	}
	if len(boundLines) == 0 {
		return fmt.Errorf("no endpoints in -listen %q", listen)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(strings.Join(boundLines, "\n")+"\n"), 0o644); err != nil {
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}

	sig := make(chan os.Signal, 4)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s == syscall.SIGHUP {
			if reloader == nil {
				fmt.Println("astraea-serve: SIGHUP ignored (-policy reference has no file to reload)")
				continue
			}
			if v, err := reloader.Reload(); err != nil {
				fmt.Fprintln(os.Stderr, "astraea-serve: reload rejected:", err)
			} else {
				fmt.Printf("astraea-serve: policy reloaded, now version %d\n", v)
			}
			continue
		}
		break // SIGINT / SIGTERM: drain
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(ctx)
	requests, batches := srv.Stats()
	fmt.Printf("astraea-serve: drained after %d requests in %d batches across %d shards (policy version %d)\n",
		requests, batches, srv.Sharded().NumShards(), srv.PolicyVersion())
	if err != nil {
		return fmt.Errorf("drain forced after %v: %w", drainTimeout, err)
	}
	return nil
}

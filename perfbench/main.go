// Command perfbench is the repository benchmark. It drives the three legs
// of the Astraea stack through their public entry points — the scenario
// emulator (emulate), the TD3 trainer (train) and the batching inference
// server (serve) — prints the end-to-end metrics, and checks that the
// program's outputs are correct. With -trace 1 it instead prints per-layer
// metrics from spans it records around its own calls into each layer and
// from the program's existing telemetry instruments.
//
// Every workload prints every metric BENCHMARK.json declares. The
// end-to-end metrics are defined for each workload in terms of its own unit
// of work (see perfbench/README.md); a per-layer metric of a layer the
// workload does not run reads 0.
//
// Usage (from the repository root; see perfbench/README.md):
//
//	bash perfbench/run.sh --workload emulate --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare parent.out change.out
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is a JSON
// record with the run's provenance and diagnostics. Any failed output
// check exits non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Provenance identifies the host and build a result came from; results
// whose provenance differs are never compared.
type Provenance struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// Record is the line printed before the result: what ran, where, and the
// diagnostics that are reported but not gated.
type Record struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     int            `json:"seconds"`
	Trace       bool           `json:"trace"`
	Provenance  Provenance     `json:"provenance"`
	Diagnostics map[string]any `json:"diagnostics,omitempty"`
	Errors      []string       `json:"errors,omitempty"`
	TraceFile   string         `json:"trace_file,omitempty"`
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	workers int // nproc: the pool size and connection cap
	trace   *Tracer
	workDir string // scratch space inside the checkout
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int64
	metrics           map[string]Metric // end-to-end, or per-layer when traced
	diagnostics       map[string]any
	errs              []string // failed output checks
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]Metric)
	}
	o.metrics[name] = Metric{Value: v, Unit: unit}
}

func (o *outcome) diag(name string, v any) {
	if o.diagnostics == nil {
		o.diagnostics = make(map[string]any)
	}
	o.diagnostics[name] = v
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

type workload func(opts options) (*outcome, error)

var workloads = map[string]workload{
	"emulate": runEmulate,
	"train":   runTrain,
	"serve":   runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run: emulate, train or serve")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result sets: perfbench --compare PARENT CHANGE")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("--compare takes a parent and a change result file"))
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	run, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q (have emulate, train, serve)", *name))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds %d: must be at least 1", *seconds))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("--trace %d: must be 0 or 1", *traceFlag))
	}
	opts := options{
		seed:    *seed,
		seconds: float64(*seconds),
		workers: runtime.NumCPU(),
		workDir: filepath.Join(".bench_build", "work"),
	}
	if *traceFlag == 1 {
		opts.trace = newTracer()
	}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		fatal(err)
	}

	out, err := run(opts)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	rec := Record{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: opts.trace != nil,
		Provenance: captureProvenance(), Diagnostics: out.diagnostics, Errors: out.errs,
	}
	if opts.trace != nil {
		rec.TraceFile = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := opts.trace.WriteFile(rec.TraceFile); err != nil {
			fatal(err)
		}
	} else {
		out.set("peak_rss_mb", "MB", peakRSSMB())
	}
	if err := completeMetrics(out, spec, opts.trace != nil); err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	printJSON(map[string]Record{"record": rec})
	printJSON(Result{Correct: len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics})
	if len(out.errs) > 0 {
		for _, e := range out.errs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
		os.Exit(1)
	}
}

// completeMetrics checks a workload's metrics against BENCHMARK.json: each
// printed metric must be declared in the run's mode with the same unit, and
// each declared end-to-end metric must be measured. Per-layer metrics of
// layers the workload does not run are filled in as 0.
func completeMetrics(out *outcome, spec benchSpec, traced bool) error {
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	units := make(map[string]string, len(declared))
	for _, m := range declared {
		units[m.Name] = m.Unit
	}
	for _, name := range sortedKeys(out.metrics) {
		unit, ok := units[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		case unit != out.metrics[name].Unit:
			return fmt.Errorf("metric %q is in %s, BENCHMARK.json says %s", name, out.metrics[name].Unit, unit)
		}
	}
	for _, m := range declared {
		if _, ok := out.metrics[m.Name]; ok {
			continue
		}
		if !traced {
			return fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
		out.set(m.Name, m.Unit, 0)
	}
	return nil
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func captureProvenance() Provenance {
	env := serve.CaptureEnv()
	p := Provenance{
		CPUModel: env.CPUModel, NumCPU: env.NumCPU, GoMaxProcs: env.GoMaxProcs,
		GoVersion: env.GoVersion, Commit: "unknown",
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		p.Commit = c
	} else if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs,
// falling back to the Go runtime's total reservation elsewhere.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// timeSetup runs setup reps times and returns the median wall time in
// seconds and the last repetition's product: repeated set-up makes setup_s
// a median, not one sample.
func timeSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var last T
	durs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		durs = append(durs, time.Since(start).Seconds())
		last = v
	}
	return last, median(durs), nil
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Command figures regenerates every table and figure of the paper's
// evaluation from the emulation substrate and prints them as aligned text
// (optionally CSV).
//
// Usage:
//
//	figures [-quick] [-csv] [-only fig6,fig12,...] [-workers N]
//	        [-telemetry out.prom] [-pprof 127.0.0.1:6060]
//
// -telemetry writes a metrics snapshot (Prometheus text, or JSON for a
// .json path) at exit; -pprof serves net/http/pprof and a live /metrics
// endpoint while the run is in progress.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetryhttp"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced trials/durations")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	only := flag.String("only", "", "comma-separated figure/table IDs to run (prefix match, e.g. fig6)")
	trials := flag.Int("trials", 0, "override trial count")
	scale := flag.Float64("scale", 0, "override duration scale (1.0 = paper)")
	outdir := flag.String("outdir", "", "also write one CSV per table into this directory")
	workers := flag.Int("workers", 0, "scenario worker pool size (0 = GOMAXPROCS; results identical for any value)")
	telemetryOut := flag.String("telemetry", "", "write a telemetry snapshot to this path at exit (.json = JSON, else Prometheus text)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and live /metrics on this address (e.g. 127.0.0.1:6060)")
	flag.Parse()

	var reg *telemetry.Registry
	if *telemetryOut != "" || *pprofAddr != "" {
		reg = telemetry.NewRegistry()
		runner.InstrumentProcess(reg)
	}
	if *pprofAddr != "" {
		bound, stop, err := telemetryhttp.Serve(*pprofAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures: pprof:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "figures: serving pprof and /metrics on http://%s\n", bound)
	}

	o := experiments.Full()
	if *quick {
		o = experiments.Quick()
	}
	if *trials > 0 {
		o.Trials = *trials
	}
	if *scale > 0 {
		o.TimeScale = *scale
	}
	o.Workers = *workers
	o.Telemetry = reg

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	selected := func(id string) bool {
		if len(want) == 0 {
			return true
		}
		for w := range want {
			if strings.HasPrefix(id, w) {
				return true
			}
		}
		return false
	}

	runs := []struct {
		id string
		fn func(experiments.Opts) []*experiments.Table
	}{
		{"table1", one(experiments.ExpTable1)},
		{"fig1a", one(experiments.ExpFigure1a)},
		{"fig1b", one(experiments.ExpFigure1b)},
		{"fig2", experiments.ExpFigure2},
		{"fig4", one(experiments.ExpFigure4)},
		{"fig6", experiments.ExpFigure6},
		{"fig7", one(experiments.ExpFigure7)},
		{"fig8", one(experiments.ExpFigure8)},
		{"fig9", one(experiments.ExpFigure9)},
		{"fig10", one(experiments.ExpFigure10)},
		{"fig10-large", one(experiments.ExpFigure10Large)},
		{"fig11", one(experiments.ExpFigure11)},
		{"fig12", one(experiments.ExpFigure12)},
		{"fig13", experiments.ExpFigure13},
		{"fig14", one(experiments.ExpFigure14)},
		{"fig15", experiments.ExpFigure15},
		{"fig16", experiments.ExpFigure16},
		{"fig17", one(experiments.ExpFigure17)},
		{"fig18", one(experiments.ExpFigure18)},
		{"fig19", experiments.ExpFigure19},
		{"fig20", one(experiments.ExpFigure20)},
		{"fig21", one(experiments.ExpFigure21)},
		{"fig22", one(experiments.ExpFigure22)},
		{"ablation-alpha", one(experiments.ExpAblationAlpha)},
		{"ablation-drain", one(experiments.ExpAblationDrain)},
		{"ablation-history", one(experiments.ExpAblationHistory)},
		{"coexistence", one(experiments.ExpCoexistenceMatrix)},
		{"parkinglot", one(experiments.ExpParkingLot)},
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
	}
	ran := 0
	for _, r := range runs {
		if !selected(r.id) {
			continue
		}
		for _, t := range r.fn(o) {
			if *csv {
				fmt.Printf("# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
			} else {
				fmt.Println(t.String())
			}
			if *outdir != "" {
				path := filepath.Join(*outdir, t.ID+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "figures:", err)
					os.Exit(1)
				}
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "figures: nothing matched -only=%q\n", *only)
		os.Exit(1)
	}
	if *telemetryOut != "" {
		if err := telemetry.WriteFile(*telemetryOut, reg); err != nil {
			fmt.Fprintln(os.Stderr, "figures: telemetry:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "figures: wrote telemetry snapshot to %s\n", *telemetryOut)
	}
}

func one(fn func(experiments.Opts) *experiments.Table) func(experiments.Opts) []*experiments.Table {
	return func(o experiments.Opts) []*experiments.Table {
		return []*experiments.Table{fn(o)}
	}
}

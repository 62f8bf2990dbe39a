package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// Comparison mode: a result set is the standard output of one or more
// benchmark runs, concatenated. Each run contributes a record line and a
// result line. Per workload and metric the comparison reports each side's
// median and quartiles, the share of run pairs the change wins, and a
// verdict: a gain is claimed only when the change wins at least nine
// tenths of the pairs and the medians differ by more than the parent's
// own spread; no worse means the change's median is within the metric's
// bound and the parent's spread is within the bound too.

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("parse %s: %w", path, err)
	}
	return spec, nil
}

func loadSpec(path string) (map[string]specMetric, error) {
	spec, err := readSpec(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]specMetric)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// run is one parsed benchmark run.
type run struct {
	rec Record
	res Result
}

// readRuns parses a result set, pairing each result line with the record
// line before it.
func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	var pending *Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var probe map[string]json.RawMessage
		if json.Unmarshal([]byte(line), &probe) != nil {
			continue
		}
		if raw, ok := probe["record"]; ok {
			var rec Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("%s: bad record: %w", path, err)
			}
			pending = &rec
			continue
		}
		if _, ok := probe["metrics"]; ok && pending != nil {
			var res Result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("%s: bad result: %w", path, err)
			}
			runs = append(runs, run{rec: *pending, res: res})
			pending = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no benchmark results", path)
	}
	return runs, nil
}

// sameHost reports why two provenances are not comparable, or "".
func sameHost(a, b Provenance) string {
	switch {
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU model %q vs %q", a.CPUModel, b.CPUModel)
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU)
	case a.GoMaxProcs != b.GoMaxProcs:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GoMaxProcs, b.GoMaxProcs)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion)
	}
	return ""
}

// verdict applies the gain and no-regression rules to one metric.
func verdict(parent, change []float64, m specMetric) (winRate float64, v string) {
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if pairs > 0 {
		winRate = float64(wins) / float64(pairs)
	}
	pq1, pmed, pq3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	if pairs > 0 && winRate >= 0.9 && better(cmed, pmed) && math.Abs(cmed-pmed) > pq3-pq1 {
		return winRate, "improved"
	}
	if m.Bound == 0 {
		return winRate, "unresolved" // per-layer metrics carry no bound
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	worse := (cmed - pmed) / math.Abs(pmed)
	if m.Better == "higher" {
		worse = -worse
	}
	spread := (pq3 - pq1) / math.Abs(pmed)
	switch {
	case allBetter || (worse <= m.Bound && spread <= m.Bound):
		return winRate, "no worse"
	case worse > m.Bound && spread <= m.Bound:
		return winRate, "worse"
	}
	return winRate, "unresolved"
}

func runCompare(w io.Writer, parentPath, changePath string) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	ref := parent[0].rec.Provenance
	for _, r := range append(append([]run(nil), parent...), change...) {
		if why := sameHost(ref, r.rec.Provenance); why != "" {
			return fmt.Errorf("refusing to compare results from different hosts: %s", why)
		}
	}

	// Group values by workload and metric, in run order, so the i-th runs
	// of each side form a pair.
	type key struct{ workload, metric string }
	collect := func(runs []run) (map[key][]float64, []key, int) {
		vals := make(map[key][]float64)
		var order []key
		failed := 0
		for _, r := range runs {
			if !r.res.Correct {
				failed++
			}
			for _, name := range sortedKeys(r.res.Metrics) {
				k := key{r.rec.Workload, name}
				if _, seen := vals[k]; !seen {
					order = append(order, k)
				}
				vals[k] = append(vals[k], r.res.Metrics[name].Value)
			}
		}
		return vals, order, failed
	}
	pv, order, pFailed := collect(parent)
	cv, _, cFailed := collect(change)

	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s\n", ref.CPUModel, ref.NumCPU, ref.GoMaxProcs, ref.GoVersion)
	fmt.Fprintf(w, "parent: %d runs (%d failed checks), change: %d runs (%d failed checks)\n",
		len(parent), pFailed, len(change), cFailed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent q1/median/q3\tchange q1/median/q3\tΔmedian\twins\tverdict")
	for _, k := range order {
		c, ok := cv[k]
		if !ok {
			continue
		}
		p := pv[k]
		m, ok := spec[k.metric]
		if !ok {
			m = specMetric{Name: k.metric, Better: "lower"}
		}
		win, v := verdict(p, c, m)
		pq1, pmed, pq3 := quartiles(p)
		cq1, cmed, cq3 := quartiles(c)
		fmt.Fprintf(tw, "%s\t%s\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%+.2f%%\t%.0f%% of %d\t%s\n",
			k.workload, k.metric, pq1, pmed, pq3, cq1, cmed, cq3,
			100*(cmed-pmed)/math.Abs(pmed), 100*win, min(len(p), len(c)), v)
	}
	return tw.Flush()
}

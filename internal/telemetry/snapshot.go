package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// MetricKind discriminates the entries of a Snapshot.
type MetricKind string

// The metric kinds a Snapshot can carry.
const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// Metric is one exported metric: a point-in-time copy of a counter, gauge,
// or histogram. Exactly one of the value groups is meaningful, selected by
// Kind.
type Metric struct {
	Name string     `json:"name"`
	Help string     `json:"help,omitempty"`
	Kind MetricKind `json:"kind"`

	// Counter/gauge value. Counters store the integral count; gauges the
	// float value.
	Count int64   `json:"count,omitempty"`
	Value float64 `json:"value,omitempty"`

	// Histogram fields: cumulative counts per upper bound (Prometheus
	// semantics), the implicit +Inf count being the last entry of Counts.
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
}

// Snapshot is a consistent-enough copy of a registry: each metric is read
// atomically, though the set is not a cross-metric transaction (a writer
// racing the snapshot may land in one counter but not its sibling). Order
// follows registration order, so exports are stable run to run.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot copies every registered metric's current value. Safe to call
// concurrently with writers and on a nil registry (empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	metrics := make([]any, len(names))
	for i, n := range names {
		metrics[i] = r.byName[n]
	}
	r.mu.Unlock()

	s := Snapshot{Metrics: make([]Metric, 0, len(names))}
	for _, m := range metrics {
		switch m := m.(type) {
		case *Counter:
			s.Metrics = append(s.Metrics, Metric{
				Name: m.name, Help: m.help, Kind: KindCounter, Count: m.Value(),
			})
		case *Gauge:
			s.Metrics = append(s.Metrics, Metric{
				Name: m.name, Help: m.help, Kind: KindGauge, Value: m.Value(),
			})
		case *gaugeFunc:
			s.Metrics = append(s.Metrics, Metric{
				Name: m.name, Help: m.help, Kind: KindGauge, Value: m.fn(),
			})
		case *Histogram:
			counts := make([]int64, len(m.bounds)+1)
			for i := range m.bounds {
				counts[i] = m.counts[i].Load()
			}
			counts[len(m.bounds)] = m.inf.Load()
			s.Metrics = append(s.Metrics, Metric{
				Name: m.name, Help: m.help, Kind: KindHistogram,
				Bounds: append([]float64(nil), m.bounds...),
				Counts: counts,
				Sum:    m.Sum(),
			})
		}
	}
	return s
}

// Merge folds other into the registry: counters add, histograms add
// bucket-wise (creating the histogram with other's bounds if absent), and
// gauges take other's value. Merging is commutative for counters and
// histograms, so folding per-scenario registries in completion order yields
// the same totals as submission order.
func (r *Registry) Merge(other Snapshot) {
	if r == nil {
		return
	}
	for _, m := range other.Metrics {
		switch m.Kind {
		case KindCounter:
			r.Counter(m.Name, m.Help).Add(m.Count)
		case KindGauge:
			r.Gauge(m.Name, m.Help).Set(m.Value)
		case KindHistogram:
			h := r.Histogram(m.Name, m.Help, m.Bounds)
			if len(h.bounds) != len(m.Bounds) || len(m.Counts) != len(m.Bounds)+1 {
				continue // shape mismatch: drop rather than corrupt
			}
			for i := range m.Bounds {
				h.counts[i].Add(m.Counts[i])
			}
			h.inf.Add(m.Counts[len(m.Bounds)])
			for {
				old := h.sumBits.Load()
				next := math.Float64bits(math.Float64frombits(old) + m.Sum)
				if h.sumBits.CompareAndSwap(old, next) {
					break
				}
			}
		}
	}
}

// Get returns the metric named name, or false if the snapshot has none.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, cumulative histogram buckets
// with le labels, and _sum/_count series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, m := range s.Metrics {
		if m.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.Name, escapeHelp(m.Help))
		}
		switch m.Kind {
		case KindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", m.Name, m.Name, m.Count)
		case KindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", m.Name, m.Name, formatFloat(m.Value))
		case KindHistogram:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", m.Name)
			var cum int64
			for i, bound := range m.Bounds {
				cum += m.Counts[i]
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.Name, formatFloat(bound), cum)
			}
			if n := len(m.Bounds); n < len(m.Counts) {
				cum += m.Counts[n]
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.Name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", m.Name, formatFloat(m.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", m.Name, cum)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders floats the way Prometheus expects: shortest
// round-trippable decimal.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp applies the text-format escaping rules for HELP lines
// (backslash and newline); a raw newline would otherwise terminate the
// comment mid-string and corrupt the exposition.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteFile snapshots the registry to path, choosing the format from the
// extension: ".json" writes JSON, anything else Prometheus text.
func WriteFile(path string, reg *Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	if strings.HasSuffix(path, ".json") {
		err = snap.WriteJSON(f)
	} else {
		err = snap.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the program.
// Spans are recorded by the benchmark around the public calls it makes;
// the program itself carries no tracing.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Op identifies the unit of work: a scenario, episode or request id.
	Op    string `json:"op,omitempty"`
	Start int64  `json:"start_ns"` // since the tracer's epoch
	End   int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(parent int64, layer, name, op string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Layer: layer, Name: name, Op: op, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Record adds an already-timed span (for calls timed in a tight loop,
// where a Begin/End pair per call would cost more than the call).
func (t *Tracer) Record(parent int64, layer, name, op string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Layer: layer, Name: name, Op: op,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// SelfTimes returns each layer's self time in seconds: the summed duration
// of its spans minus the part of each span that its direct children cover
// (overlapping children are merged, so parallel children count once).
func (t *Tracer) SelfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]Span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curLo, curHi int64 = 0, -1, -1
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		self[s.Layer] += float64(dur-covered) / 1e9
	}
	return self
}

// WriteFile writes every span and the per-layer self times as JSON.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	self := t.SelfTimes()
	t.mu.Lock()
	doc := struct {
		SelfSeconds map[string]float64 `json:"self_seconds"`
		Spans       []Span             `json:"spans"`
	}{self, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

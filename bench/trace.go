package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: around a public function the decomposed op calls, or inside
// a bench-owned interposer. Name is "<layer>.<what>".
type span struct {
	ID     int64
	Parent int64 // the op's root span; 0 for a root
	Op     int64 // ordinal of the op in flight when the span started
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// tracer keeps spans and counters in memory for one traced instance.
// Interposers run on server goroutines, so everything is guarded.
// Spans and counts are kept only while a measured window is open
// (set-up, pre-load and per-round state creation stay out); observe
// records regardless, for layers that only run outside windows.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	root  atomic.Int64 // root span of the op in flight
	op    atomic.Int64
	next  atomic.Int64

	mu      sync.Mutex
	spans   []span
	counts  map[string]float64
	outside map[string][]time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}, outside: map[string][]time.Duration{}}
}

// start opens a span and returns the function that closes it.
func (t *tracer) start(name string) func() {
	if !t.on.Load() {
		return func() {}
	}
	s := span{ID: t.next.Add(1), Parent: t.root.Load(), Op: t.op.Load(), Name: name, Start: time.Since(t.epoch)}
	return func() {
		s.End = time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// beginOp opens the root span of one op; spans started until the
// returned function runs are its children.
func (t *tracer) beginOp(workload, image string) func() {
	if !t.on.Load() {
		return func() {}
	}
	s := span{ID: t.next.Add(1), Op: t.op.Add(1), Name: "op." + workload + "/" + image, Start: time.Since(t.epoch)}
	t.root.Store(s.ID)
	return func() {
		s.End = time.Since(t.epoch)
		t.root.Store(0)
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// count adds v to a named counter (bytes, hits, requests).
func (t *tracer) count(name string, v float64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// reset drops the spans and counts recorded so far — the warm-up
// round's — and keeps the outside observations.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.counts = nil, map[string]float64{}
	t.mu.Unlock()
}

// observe records a duration measured outside any window.
func (t *tracer) observe(name string, d time.Duration) {
	t.mu.Lock()
	t.outside[name] = append(t.outside[name], d)
	t.mu.Unlock()
}

// aggregate is the tracer's content summed by span name.
type aggregate struct {
	n      map[string]float64 // spans per name
	ms     map[string]float64 // total span time per name
	counts map[string]float64
}

func (t *tracer) aggregate() aggregate {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := aggregate{n: map[string]float64{}, ms: map[string]float64{}, counts: map[string]float64{}}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "op.") {
			continue
		}
		a.n[s.Name]++
		a.ms[s.Name] += float64(s.End-s.Start) / float64(time.Millisecond)
	}
	for k, v := range t.counts {
		a.counts[k] = v
	}
	for k, ds := range t.outside {
		for _, d := range ds {
			a.n[k]++
			a.ms[k] += float64(d) / float64(time.Millisecond)
		}
	}
	return a
}

// writeChrome writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one row
// per op.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Op,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

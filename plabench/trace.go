package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own files, around
// the calls it makes into each layer's public functions. The program has
// no inner hooks yet, so a layer below the one a request enters is timed
// by calling that layer directly for the same request, right after the
// outer call: a child span is this replay of the sub-call its parent
// makes internally. A span's self time is its duration minus the
// durations of its children.

// span is one recorded call into a layer.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Req is shared by the spans of one operation.
	Req  uint64 `json:"req"`
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Self is End-Start minus the children's durations, set on write.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	reqs  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it. The zero openSpan (from a
// nil tracer) records nothing.
type openSpan struct {
	t     *tracer
	id    uint64
	par   uint64
	req   uint64
	name  string
	start time.Time
}

// req returns a fresh request id (0 from a nil tracer).
func (t *tracer) req() uint64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// start opens a span named name under parent (0 for a root) in request
// req.
func (t *tracer) start(req, parent uint64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.ids.Add(1), par: parent, req: req, name: name, start: time.Now()}
}

// end closes the span and returns its duration.
func (s openSpan) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{ID: s.id, Parent: s.par, Req: s.req, Name: s.name,
		Start: int64(s.start.Sub(s.t.t0)), End: int64(now.Sub(s.t.t0))})
	s.t.mu.Unlock()
	return now.Sub(s.start)
}

// withSelf returns a copy of the spans with self times filled in.
func (t *tracer) withSelf() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[uint64]int64{}
	for _, s := range out {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i := range out {
		out[i].Self = max(out[i].End-out[i].Start-children[out[i].ID], 0)
	}
	return out
}

// durations returns the durations of the spans named name; with self
// set, their self times instead.
func (t *tracer) durations(name string, self bool) []time.Duration {
	var out []time.Duration
	for _, s := range t.withSelf() {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self {
			d = s.Self
		}
		out = append(out, time.Duration(d))
	}
	return out
}

// p50 is the median duration (or self time) of the spans named name.
func (t *tracer) p50(name string, self bool) time.Duration {
	return median(t.durations(name, self))
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name, false) {
		sum += d
	}
	return sum
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.withSelf() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

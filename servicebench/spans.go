package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer's public function, timed from the
// benchmark's side of the boundary. Spans of one campaign share its key;
// Parent links a call to the span that caused it.
type span struct {
	ID, Parent int64
	Name       string
	Campaign   uint64        // the campaign's base seed
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one branch per boundary.
type tracer struct {
	epoch  time.Time
	lastID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	t *tracer
	s span
}

// begin opens a span; close it with end. Children name it by id().
func (t *tracer) begin(name string, parent int64, campaign uint64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, s: span{
		ID: t.lastID.Add(1), Parent: parent, Name: name, Campaign: campaign,
		Start: time.Since(t.epoch),
	}}
}

// id is the span's ID (0 when untraced).
func (r spanRef) id() int64 { return r.s.ID }

// end closes the span and records it.
func (r spanRef) end() {
	t := r.t
	if t == nil {
		return
	}
	r.s.End = time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, r.s)
	t.mu.Unlock()
}

// durations returns the duration of every span with the given name, in
// recording order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// total sums the durations of the named spans.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

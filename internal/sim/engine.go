// Package sim contains the link simulator that stands in for the paper's
// TelosB testbed: the per-sender attempt step (Sender: CSMA-CA backoff,
// channel sample, transmit, data/ACK loss, completion), the single-server
// queue recurrence that drives it for one link (generator → queue → MAC →
// channel → receiver) on both engines — EngineDES samples every backoff,
// EngineFast charges its mean — producing the same per-packet metadata the
// motes logged, the batch kernel that runs that recurrence over many
// configurations, and a deterministic event engine for the multi-sender
// topologies built on the same step.
package sim

import (
	"container/heap"
	"errors"
	"math"
)

// EventID identifies a scheduled event for cancellation.
//
// The engine works in continuous simulated seconds (float64), matching the
// paper's millisecond-scale timing constants; time.Duration's nanosecond
// quantisation would accumulate rounding across millions of events.
type EventID uint64

type scheduledEvent struct {
	at        float64
	seq       EventID // tie-breaker: FIFO among simultaneous events
	fn        func()
	cancelled bool
	index     int
}

type eventHeap []*scheduledEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*scheduledEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is a deterministic discrete-event scheduler. Events scheduled for
// the same instant run in scheduling order. Engine is not safe for
// concurrent use.
type Engine struct {
	now     float64
	nextSeq EventID
	events  eventHeap
	byID    map[EventID]*scheduledEvent
}

// NewEngine creates an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{byID: make(map[EventID]*scheduledEvent)}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// ErrPastEvent is returned when scheduling before the current time.
var ErrPastEvent = errors.New("sim: cannot schedule event in the past")

// Schedule runs fn after delay seconds (delay >= 0).
func (e *Engine) Schedule(delay float64, fn func()) (EventID, error) {
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute simulated time t.
func (e *Engine) At(t float64, fn func()) (EventID, error) {
	if t < e.now {
		return 0, ErrPastEvent
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, errors.New("sim: non-finite event time")
	}
	ev := &scheduledEvent{at: t, seq: e.nextSeq, fn: fn}
	e.nextSeq++
	heap.Push(&e.events, ev)
	e.byID[ev.seq] = ev
	return ev.seq, nil
}

// Cancel prevents a pending event from firing. Cancelling an unknown or
// already-fired event is a no-op returning false.
func (e *Engine) Cancel(id EventID) bool {
	ev, ok := e.byID[id]
	if !ok || ev.cancelled {
		return false
	}
	ev.cancelled = true
	delete(e.byID, id)
	return true
}

// Pending returns the number of events still scheduled (excluding
// cancelled ones awaiting lazy removal).
func (e *Engine) Pending() int { return len(e.byID) }

// Step fires the earliest pending event. It returns false when no events
// remain.
func (e *Engine) Step() bool {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*scheduledEvent)
		if ev.cancelled {
			continue
		}
		delete(e.byID, ev.seq)
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

// Run fires events until none remain or the clock would pass `until`
// (exclusive); remaining events stay scheduled and the clock advances to
// `until`.
func (e *Engine) Run(until float64) {
	for {
		// Peek for the next live event.
		var next *scheduledEvent
		for e.events.Len() > 0 {
			top := e.events[0]
			if top.cancelled {
				heap.Pop(&e.events)
				continue
			}
			next = top
			break
		}
		if next == nil || next.at > until {
			if until > e.now {
				e.now = until
			}
			return
		}
		e.Step()
	}
}

// RunUntilIdle fires events until none remain.
func (e *Engine) RunUntilIdle() {
	for e.Step() {
	}
}

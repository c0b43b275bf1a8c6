package obs

import (
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented section of the campaign pipeline.
// The sweep-engine stages account wall-clock time; the simulator-pipeline
// stages account simulated seconds (the DES has no meaningful wall split),
// so the two groups must never be summed together — StageSnapshot.Clock
// labels which clock a stage was measured on.
type Stage uint8

const (
	// Sweep-engine stages (wall clock).

	// StageDispatch is time the dispatcher spends acquiring a window
	// token and handing an index to a worker.
	StageDispatch Stage = iota
	// StageSimulate is the per-configuration simulation wall time.
	StageSimulate
	// StageReorder is time the emitter spends draining the reorder
	// buffer after each completion arrives.
	StageReorder
	// StageYield is time spent inside the caller's yield and OnRow hooks.
	StageYield
	// StageCheckpoint is time spent appending to the checkpoint sidecar.
	StageCheckpoint

	// Simulator-pipeline stages (simulated seconds).

	// StageGenerator counts generated packets (duration is zero: packet
	// generation is instantaneous in simulated time).
	StageGenerator
	// StageQueue is time packets wait in the send queue before service.
	StageQueue
	// StageMAC is CSMA-CA overhead: SPI load, backoff, turnaround,
	// retry delays and software overhead.
	StageMAC
	// StageChannel is on-air frame time.
	StageChannel
	// StageRX is receive-side listening: ACK reception and ACK-wait
	// timeouts.
	StageRX

	numStages
)

var stageNames = [numStages]string{
	"dispatch", "simulate", "reorder", "yield", "checkpoint",
	"generator", "queue", "mac", "channel", "rx",
}

// String returns the stable lower-case stage name used in manifests.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Wall reports whether the stage is measured on the wall clock (as opposed
// to simulated seconds).
func (s Stage) Wall() bool { return s <= StageCheckpoint }

// firstSimStage is the first simulator-pipeline stage; the rest follow it.
const firstSimStage = StageGenerator

// SimStages is a simulator's private accumulator of the simulator-pipeline
// stages: plain counters, owned by one goroutine, published to a Metrics
// with AddSimStages. The zero value is empty and ready to use.
type SimStages struct {
	count [numStages - firstSimStage]int64
	ns    [numStages - firstSimStage]int64
}

// Add accounts one event of simulated seconds to a simulator-pipeline
// stage. The seconds are converted to integer nanoseconds per event, so the
// published totals do not depend on how events are grouped.
func (a *SimStages) Add(s Stage, seconds float64) {
	a.count[s-firstSimStage]++
	a.ns[s-firstSimStage] += int64(seconds * float64(time.Second))
}

// stageCell accumulates one stage: event count plus total duration in
// nanoseconds (wall stages) or simulated nanoseconds (simulator stages).
type stageCell struct {
	count atomic.Int64
	ns    atomic.Int64
}

// StageSnapshot is the captured state of one stage.
type StageSnapshot struct {
	Name    string  `json:"name"`
	Clock   string  `json:"clock"` // "wall" or "sim"
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// stageSnapshots captures all stages in declaration order.
func stageSnapshots(cells *[numStages]stageCell) []StageSnapshot {
	out := make([]StageSnapshot, numStages)
	for i := range cells {
		s := Stage(i)
		clock := "sim"
		if s.Wall() {
			clock = "wall"
		}
		out[i] = StageSnapshot{
			Name:    s.String(),
			Clock:   clock,
			Count:   cells[i].count.Load(),
			Seconds: float64(cells[i].ns.Load()) / float64(time.Second),
		}
	}
	return out
}

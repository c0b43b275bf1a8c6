package obs

import (
	"expvar"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the telemetry hub one campaign run shares across the sweep
// engine, the simulator workers and the CLI. Construct it with New and pass
// it through sweep.RunOptions.Metrics / sim.Options.Obs; a nil *Metrics is
// a valid no-op sink — every method checks the receiver first and the nil
// path performs no work and no allocation.
type Metrics struct {
	start time.Time

	configsDone Counter
	rowsEmitted Counter
	configErrs  Counter
	packets     Counter

	window     Gauge      // reorder-window (pending map) occupancy
	configWall *Histogram // seconds of wall time per configuration
	windowOcc  *Histogram // reorder-window occupancy distribution

	stages [numStages]stageCell
}

// New returns a Metrics with the standard bucket layout: per-configuration
// wall time from 100 µs to ~100 s (exponential), window occupancy 1..32
// (linear).
func New() *Metrics {
	return &Metrics{
		start:      time.Now(),
		configWall: mustHistogram(ExpBuckets(100e-6, 2, 21)),
		windowOcc:  mustHistogram(LinearBuckets(1, 1, 32)),
	}
}

// Uptime returns the wall time since construction (0 for nil).
func (m *Metrics) Uptime() time.Duration {
	if m == nil {
		return 0
	}
	return time.Since(m.start)
}

// ObserveConfig records one finished configuration and its wall time.
func (m *Metrics) ObserveConfig(wall time.Duration) {
	if m == nil {
		return
	}
	m.configsDone.Inc()
	m.configWall.Observe(wall.Seconds())
}

// IncRows records one emitted dataset row.
func (m *Metrics) IncRows() {
	if m == nil {
		return
	}
	m.rowsEmitted.Inc()
}

// IncErrors records one failed configuration.
func (m *Metrics) IncErrors() {
	if m == nil {
		return
	}
	m.configErrs.Inc()
}

// AddPackets records n simulated packets (batched once per configuration).
func (m *Metrics) AddPackets(n int64) {
	if m == nil {
		return
	}
	m.packets.Add(n)
}

// ObserveWindow records the reorder-window occupancy after an arrival.
func (m *Metrics) ObserveWindow(n int) {
	if m == nil {
		return
	}
	m.window.Set(int64(n))
	m.windowOcc.Observe(float64(n))
}

// StageAdd accounts one wall-clock interval to a sweep-engine stage.
func (m *Metrics) StageAdd(s Stage, d time.Duration) {
	if m == nil {
		return
	}
	m.stages[s].count.Add(1)
	m.stages[s].ns.Add(int64(d))
}

// AddSimStages publishes a simulator's lane-local stage totals and zeroes
// the accumulator, so the shared atomics are touched once per publish
// (once per configuration) instead of once per packet.
func (m *Metrics) AddSimStages(a *SimStages) {
	if m == nil {
		return
	}
	for i := range a.count {
		m.stages[firstSimStage+Stage(i)].count.Add(a.count[i])
		m.stages[firstSimStage+Stage(i)].ns.Add(a.ns[i])
	}
	*a = SimStages{}
}

// Snapshot captures the current state. It is safe to call concurrently
// with writers; each histogram snapshot is internally consistent (see
// Histogram.Snapshot). A nil receiver yields the zero Snapshot.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	elapsed := time.Since(m.start).Seconds()
	s := Snapshot{
		ElapsedS:    elapsed,
		ConfigsDone: m.configsDone.Load(),
		RowsEmitted: m.rowsEmitted.Load(),
		Errors:      m.configErrs.Load(),
		Packets:     m.packets.Load(),
		Window:      GaugeSnapshot{Last: m.window.Load(), Max: m.window.Max()},
		ConfigWall:  m.configWall.Snapshot(),
		WindowOcc:   m.windowOcc.Snapshot(),
		Stages:      stageSnapshots(&m.stages),
	}
	if elapsed > 0 {
		s.ConfigsPerSec = float64(s.ConfigsDone) / elapsed
		s.RowsPerSec = float64(s.RowsEmitted) / elapsed
		s.PacketsPerSec = float64(s.Packets) / elapsed
	}
	return s
}

// GaugeSnapshot is a captured gauge state.
type GaugeSnapshot struct {
	Last int64 `json:"last"`
	Max  int64 `json:"max"`
}

// Snapshot is the JSON-serializable point-in-time state of a Metrics. It
// is what -metrics-out writes, what the run manifest embeds, and what
// expvar exposes under /debug/vars.
type Snapshot struct {
	ElapsedS      float64 `json:"elapsed_s"`
	ConfigsDone   int64   `json:"configs_done"`
	RowsEmitted   int64   `json:"rows_emitted"`
	Errors        int64   `json:"errors"`
	Packets       int64   `json:"packets"`
	ConfigsPerSec float64 `json:"configs_per_sec"`
	RowsPerSec    float64 `json:"rows_per_sec"`
	PacketsPerSec float64 `json:"packets_per_sec"`

	Window     GaugeSnapshot     `json:"window"`
	ConfigWall HistogramSnapshot `json:"config_wall_s"`
	WindowOcc  HistogramSnapshot `json:"window_occupancy"`

	Stages []StageSnapshot `json:"stages"`
}

// Stage returns the named stage snapshot (zero value if absent).
func (s Snapshot) Stage(name string) StageSnapshot {
	for _, st := range s.Stages {
		if st.Name == name {
			return st
		}
	}
	return StageSnapshot{}
}

// StageSeconds sums the recorded durations of the stages on the given
// clock ("wall" or "sim") — the per-stage cost breakdown total.
func (s Snapshot) StageSeconds(clock string) float64 {
	var sum float64
	for _, st := range s.Stages {
		if st.Clock == clock {
			sum += st.Seconds
		}
	}
	return sum
}

// expvar plumbing: expvar.Publish panics on duplicate names, so each name
// is bound once to an indirection cell and later Publish calls for the
// same name just swap the cell's target. This keeps CLI runs (and their
// tests, which call run() repeatedly in one process) idempotent.
var (
	expvarMu    sync.Mutex
	expvarCells = map[string]*atomic.Pointer[Metrics]{}
)

// PublishExpvar exposes m's live Snapshot under the given expvar name
// (visible at /debug/vars once an HTTP server is attached). Republishing
// the same name rebinds it to the new Metrics.
func PublishExpvar(name string, m *Metrics) {
	expvarMu.Lock()
	cell, ok := expvarCells[name]
	if !ok {
		cell = &atomic.Pointer[Metrics]{}
		expvarCells[name] = cell
	}
	cell.Store(m)
	expvarMu.Unlock()
	if !ok {
		expvar.Publish(name, expvar.Func(func() any { return cell.Load().Snapshot() }))
	}
}

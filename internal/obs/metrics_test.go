package obs

import (
	"encoding/json"
	"expvar"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// TestNilMetricsSafe certifies the zero-overhead contract: every Metrics
// method must be a no-op on a nil receiver (BenchmarkObsNilOverhead pins the
// "no allocation" half of the contract).
func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	m.ObserveConfig(time.Second)
	m.IncRows()
	m.IncErrors()
	m.AddPackets(42)
	m.ObserveWindow(3)
	m.StageAdd(StageDispatch, time.Millisecond)
	var sim SimStages
	sim.Add(StageQueue, 0.5)
	m.AddSimStages(&sim)
	if got := m.Uptime(); got != 0 {
		t.Errorf("nil Uptime = %v, want 0", got)
	}
	snap := m.Snapshot()
	if snap.ConfigsDone != 0 || snap.RowsEmitted != 0 || snap.Stages != nil {
		t.Errorf("nil Snapshot = %+v, want zero value", snap)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := New()
	m.ObserveConfig(2 * time.Millisecond)
	m.ObserveConfig(40 * time.Millisecond)
	m.IncRows()
	m.IncRows()
	m.IncRows()
	m.IncErrors()
	m.AddPackets(800)
	m.ObserveWindow(2)
	m.ObserveWindow(5)
	m.ObserveWindow(1)

	s := m.Snapshot()
	if s.ConfigsDone != 2 {
		t.Errorf("ConfigsDone = %d, want 2", s.ConfigsDone)
	}
	if s.RowsEmitted != 3 {
		t.Errorf("RowsEmitted = %d, want 3", s.RowsEmitted)
	}
	if s.Errors != 1 {
		t.Errorf("Errors = %d, want 1", s.Errors)
	}
	if s.Packets != 800 {
		t.Errorf("Packets = %d, want 800", s.Packets)
	}
	if s.Window.Last != 1 || s.Window.Max != 5 {
		t.Errorf("Window = %+v, want last 1 max 5", s.Window)
	}
	if s.ConfigWall.Count != 2 {
		t.Errorf("ConfigWall.Count = %d, want 2", s.ConfigWall.Count)
	}
	if got, want := s.ConfigWall.Sum, 0.042; math.Abs(got-want) > 1e-9 {
		t.Errorf("ConfigWall.Sum = %g, want %g", got, want)
	}
	if s.WindowOcc.Count != 3 {
		t.Errorf("WindowOcc.Count = %d, want 3", s.WindowOcc.Count)
	}
	if s.ElapsedS <= 0 {
		t.Errorf("ElapsedS = %g, want > 0", s.ElapsedS)
	}
	if s.ConfigsPerSec <= 0 || s.RowsPerSec <= 0 || s.PacketsPerSec <= 0 {
		t.Errorf("rates = %g/%g/%g, want all > 0",
			s.ConfigsPerSec, s.RowsPerSec, s.PacketsPerSec)
	}
	if m.Uptime() <= 0 {
		t.Error("Uptime should be positive")
	}
}

func TestStageAccounting(t *testing.T) {
	m := New()
	m.StageAdd(StageDispatch, 10*time.Millisecond)
	m.StageAdd(StageDispatch, 30*time.Millisecond)
	m.StageAdd(StageSimulate, 100*time.Millisecond)
	var sim SimStages
	sim.Add(StageQueue, 1.5)
	sim.Add(StageChannel, 0.25)
	m.AddSimStages(&sim)
	if sim != (SimStages{}) {
		t.Errorf("AddSimStages left %+v in the accumulator, want it zeroed", sim)
	}

	s := m.Snapshot()
	if len(s.Stages) != int(numStages) {
		t.Fatalf("len(Stages) = %d, want %d", len(s.Stages), numStages)
	}
	d := s.Stage("dispatch")
	if d.Count != 2 || math.Abs(d.Seconds-0.040) > 1e-9 {
		t.Errorf("dispatch = %+v, want count 2 seconds 0.040", d)
	}
	if d.Clock != "wall" {
		t.Errorf("dispatch clock = %q, want wall", d.Clock)
	}
	q := s.Stage("queue")
	if q.Count != 1 || math.Abs(q.Seconds-1.5) > 1e-9 {
		t.Errorf("queue = %+v, want count 1 seconds 1.5", q)
	}
	if q.Clock != "sim" {
		t.Errorf("queue clock = %q, want sim", q.Clock)
	}
	if got := s.Stage("no-such-stage"); got != (StageSnapshot{}) {
		t.Errorf("unknown stage = %+v, want zero value", got)
	}

	if got, want := s.StageSeconds("wall"), 0.140; math.Abs(got-want) > 1e-9 {
		t.Errorf("StageSeconds(wall) = %g, want %g", got, want)
	}
	if got, want := s.StageSeconds("sim"), 1.75; math.Abs(got-want) > 1e-9 {
		t.Errorf("StageSeconds(sim) = %g, want %g", got, want)
	}
}

func TestStageNamesAndClocks(t *testing.T) {
	wall := map[string]bool{
		"dispatch": true, "simulate": true, "reorder": true,
		"yield": true, "checkpoint": true,
		"generator": false, "queue": false, "mac": false,
		"channel": false, "rx": false,
	}
	if int(numStages) != len(wall) {
		t.Fatalf("numStages = %d, want %d", numStages, len(wall))
	}
	for i := Stage(0); i < numStages; i++ {
		w, ok := wall[i.String()]
		if !ok {
			t.Errorf("stage %d has unexpected name %q", i, i)
			continue
		}
		if i.Wall() != w {
			t.Errorf("stage %s Wall() = %v, want %v", i, i.Wall(), w)
		}
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Errorf("out-of-range stage name = %q, want unknown", got)
	}
}

func TestBucketBuilders(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; !equalFloats(exp, want) {
		t.Errorf("ExpBuckets = %v, want %v", exp, want)
	}
	lin := LinearBuckets(1, 3, 4)
	if want := []float64{1, 4, 7, 10}; !equalFloats(lin, want) {
		t.Errorf("LinearBuckets = %v, want %v", lin, want)
	}
	if _, err := NewHistogram(nil); err == nil {
		t.Error("NewHistogram(nil) should error")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Error("non-increasing bounds should error")
	}
	if _, err := NewHistogram([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN bound should error")
	}
	if _, err := NewHistogram([]float64{1, math.Inf(1)}); err == nil {
		t.Error("infinite bound should error")
	}
}

func TestQuantile(t *testing.T) {
	h := mustHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 6} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %g, want 2", got)
	}
	if got := s.Quantile(1); got != 8 {
		t.Errorf("Quantile(1) = %g, want 8", got)
	}
	h.Observe(100) // overflow bucket: quantile saturates at the last bound
	if got := h.Snapshot().Quantile(1); got != 8 {
		t.Errorf("overflow Quantile(1) = %g, want 8", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}
	if got := (HistogramSnapshot{}).Mean(); got != 0 {
		t.Errorf("empty Mean = %g, want 0", got)
	}
	if got, want := s.Mean(), (0.5+1.5+1.7+3+6)/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %g, want %g", got, want)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	const name = "obs_test_metrics"
	m1 := New()
	m1.IncRows()
	PublishExpvar(name, m1)
	// Republishing the same name must not panic and must rebind.
	m2 := New()
	m2.IncRows()
	m2.IncRows()
	PublishExpvar(name, m2)

	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar %q not published", name)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar value is not a Snapshot: %v", err)
	}
	if snap.RowsEmitted != 2 {
		t.Errorf("expvar rows = %d, want 2 (rebound to m2)", snap.RowsEmitted)
	}
}

func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.manifest.json")
	snap := New().Snapshot()
	m := Manifest{
		Schema:      ManifestSchema,
		Tool:        "wsnsweep",
		GoVersion:   "go1.24.0",
		Fingerprint: FormatFingerprint(0xdeadbeef),
		BaseSeed:    7,
		Packets:     400,
		Fast:        true,
		Configs:     120,
		Rows:        120,
		Resumed:     true,
		ResumedFrom: 60,
		Axes:        []Axis{{Name: "distance_m", Count: 2, Values: "25,35"}},
		WallTimeS:   1.25,
		Metrics:     &snap,
	}
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != "00000000deadbeef" {
		t.Errorf("fingerprint = %q, want 00000000deadbeef", got.Fingerprint)
	}
	if got.Configs != 120 || got.Rows != 120 || !got.Resumed || got.ResumedFrom != 60 {
		t.Errorf("roundtrip mismatch: %+v", got)
	}
	if got.Metrics == nil {
		t.Error("metrics snapshot lost in roundtrip")
	}
	if len(got.Axes) != 1 || got.Axes[0].Name != "distance_m" {
		t.Errorf("axes = %+v", got.Axes)
	}

	// Schema validation: a manifest with the wrong schema is rejected.
	bad := m
	bad.Schema = "wsnlink-run-manifest/v0"
	badPath := filepath.Join(dir, "bad.json")
	if err := bad.WriteFile(badPath); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(badPath); err == nil {
		t.Error("wrong schema should be rejected")
	}
	if _, err := ReadManifest(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

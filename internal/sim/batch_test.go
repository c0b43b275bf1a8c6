package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"wsnlink/internal/obs"
	"wsnlink/internal/phy"
	"wsnlink/internal/stack"
)

// batchTestConfigs is a mixed workload: short/long links (35 m enables the
// human-shadowing process), saturated and paced arrivals, small queues that
// drop, and payload/power/retry variety.
func batchTestConfigs() []stack.Config {
	return []stack.Config{
		{DistanceM: 25, TxPower: 15, MaxTries: 3, RetryDelay: 0.030, QueueCap: 30, PktInterval: 0.030, PayloadBytes: 110},
		{DistanceM: 35, TxPower: 7, MaxTries: 8, RetryDelay: 0.010, QueueCap: 1, PktInterval: 0.020, PayloadBytes: 50},
		{DistanceM: 5, TxPower: 3, MaxTries: 1, RetryDelay: 0.030, QueueCap: 10, PktInterval: 0, PayloadBytes: 20},
		{DistanceM: 30, TxPower: 31, MaxTries: 5, RetryDelay: 0.050, QueueCap: 3, PktInterval: 0.005, PayloadBytes: 114},
		{DistanceM: 40, TxPower: 11, MaxTries: 3, RetryDelay: 0.030, QueueCap: 30, PktInterval: 0.030, PayloadBytes: 80},
	}
}

// TestRunBatchMatchesSingle is the batch-vs-single equivalence proof at the
// simulator level: for the same seeds, RunBatch's Result for configuration i
// is identical — counters, duration, records — to a RunFastContext call.
func TestRunBatchMatchesSingle(t *testing.T) {
	cfgs := batchTestConfigs()
	seeds := make([]uint64, len(cfgs))
	for i := range seeds {
		seeds[i] = DeriveSeed(99, i)
	}
	results, errs, err := RunBatch(context.Background(), cfgs, BatchOptions{
		Packets: 400, Seeds: seeds, RecordPackets: true,
	})
	if err != nil || errs != nil {
		t.Fatalf("RunBatch: err=%v errs=%v", err, errs)
	}
	for i, cfg := range cfgs {
		single, err := RunFastContext(context.Background(), cfg, Options{
			Packets: 400, Seed: seeds[i], RecordPackets: true,
		})
		if err != nil {
			t.Fatalf("single %d: %v", i, err)
		}
		if !reflect.DeepEqual(results[i], single) {
			t.Errorf("config %d: batch result differs from single-config run\nbatch:  %+v\nsingle: %+v",
				i, results[i].Counters, single.Counters)
		}
	}
}

// TestRunBatchDerivedSeeds: a nil Seeds slice must derive DeriveSeed(base, i)
// per lane.
func TestRunBatchDerivedSeeds(t *testing.T) {
	cfgs := batchTestConfigs()[:3]
	auto, errs, err := RunBatch(context.Background(), cfgs, BatchOptions{Packets: 120, BaseSeed: 7})
	if err != nil || errs != nil {
		t.Fatalf("RunBatch: err=%v errs=%v", err, errs)
	}
	for i, cfg := range cfgs {
		single, err := RunFastContext(context.Background(), cfg, Options{Packets: 120, Seed: DeriveSeed(7, i)})
		if err != nil {
			t.Fatal(err)
		}
		if auto[i].Counters != single.Counters {
			t.Errorf("config %d: derived-seed batch differs from DeriveSeed single run", i)
		}
	}
}

// nonCalibrated defeats the kernel's phy.Calibrated type assertion while
// computing the identical probabilities, pinning the fused fast path to the
// generic interface path.
type nonCalibrated struct{ m phy.Calibrated }

func (n nonCalibrated) DataPER(snrDB float64, payloadBytes int) float64 {
	return n.m.DataPER(snrDB, payloadBytes)
}
func (n nonCalibrated) AckPER(snrDB float64) float64 { return n.m.AckPER(snrDB) }

// TestFusedCalibratedMatchesInterface: the fused exp-sharing Calibrated path
// must produce the same packet outcomes as calling the model through the
// ErrorModel interface. The only numeric difference is the ACK power
// computed by squaring instead of math.Pow — a few ulp on the probability,
// which a uniform draw cannot resolve.
func TestFusedCalibratedMatchesInterface(t *testing.T) {
	for i, cfg := range batchTestConfigs() {
		fused, err := RunFastContext(context.Background(), cfg, Options{Packets: 600, Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		generic, err := RunFastContext(context.Background(), cfg, Options{
			Packets: 600, Seed: uint64(i) + 1, ErrorModel: nonCalibrated{phy.NewCalibrated()},
		})
		if err != nil {
			t.Fatal(err)
		}
		if fused.Counters != generic.Counters {
			t.Errorf("config %d: fused Calibrated path diverged from interface path", i)
		}
	}
}

// TestPowIntMatchesPow: binary exponentiation vs math.Pow over the ACK
// exponent range, within a few ulp.
func TestPowIntMatchesPow(t *testing.T) {
	for _, x := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999999, 1.0} {
		for _, n := range []int{0, 1, 2, 11, 88, 255} {
			got := powInt(x, n)
			want := pow(x, n)
			if rel := abs(got-want) / want; rel > 1e-13 {
				t.Errorf("powInt(%v,%d) = %v, want %v (rel %v)", x, n, got, want, rel)
			}
		}
	}
}

func pow(x float64, n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= x
	}
	return r
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestRunBatchErrors: positional error reporting — invalid configurations
// fail their own lane without disturbing the others.
func TestRunBatchErrors(t *testing.T) {
	if _, _, err := RunBatch(context.Background(), nil, BatchOptions{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, _, err := RunBatch(context.Background(), batchTestConfigs(), BatchOptions{Seeds: []uint64{1}}); err == nil {
		t.Fatal("mismatched Seeds length accepted")
	}
	if _, _, err := RunBatch(context.Background(), batchTestConfigs(), BatchOptions{Packets: -1}); err == nil {
		t.Fatal("negative Packets accepted")
	}

	cfgs := batchTestConfigs()[:3]
	cfgs[1].DistanceM = -4 // invalid
	results, errs, err := RunBatch(context.Background(), cfgs, BatchOptions{Packets: 50})
	if err != nil {
		t.Fatal(err)
	}
	if errs == nil || errs[1] == nil {
		t.Fatal("invalid lane not reported")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy lanes reported errors: %v", errs)
	}
	if results[0].Counters.Generated != 50 || results[2].Counters.Generated != 50 {
		t.Fatal("healthy lanes did not run")
	}
}

// TestRunBatchCancel: a canceled context fails every remaining lane with an
// error wrapping context.Canceled.
func TestRunBatchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, errs, err := RunBatch(ctx, batchTestConfigs(), BatchOptions{Packets: 50})
	if err != nil {
		t.Fatal(err)
	}
	_ = results
	if errs == nil {
		t.Fatal("canceled batch reported no lane errors")
	}
	for i, e := range errs {
		if !errors.Is(e, context.Canceled) {
			t.Errorf("lane %d: error %v does not wrap context.Canceled", i, e)
		}
	}
}

// TestRunBatchZeroAlloc pins the tentpole contract: with a warmed arena and
// packet recording off, RunBatch performs zero steady-state allocations.
func TestRunBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in regular builds")
	}
	cfgs := batchTestConfigs()
	seeds := make([]uint64, len(cfgs))
	for i := range seeds {
		seeds[i] = DeriveSeed(3, i)
	}
	arena := NewBatchArena()
	opts := BatchOptions{Packets: 60, Seeds: seeds, Arena: arena}
	ctx := context.Background()
	if _, _, err := RunBatch(ctx, cfgs, opts); err != nil { // warm the arena
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, _, err := RunBatch(ctx, cfgs, opts); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("RunBatch steady state allocates %v times per call, want 0", got)
	}
}

// TestRunBatchObsZeroAlloc: with telemetry enabled (Obs set, as every
// daemon job runs) the warmed kernel still allocates nothing — stage
// accounting is preallocated state, not per-packet garbage.
func TestRunBatchObsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in regular builds")
	}
	cfgs := batchTestConfigs()
	seeds := make([]uint64, len(cfgs))
	for i := range seeds {
		seeds[i] = DeriveSeed(3, i)
	}
	m := obs.New()
	opts := BatchOptions{Packets: 60, Seeds: seeds, Arena: NewBatchArena(), Obs: m}
	ctx := context.Background()
	if _, _, err := RunBatch(ctx, cfgs, opts); err != nil { // warm the arena
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, _, err := RunBatch(ctx, cfgs, opts); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("RunBatch with Obs allocates %v times per call, want 0", got)
	}
	if m.Snapshot().Stage("generator").Count == 0 {
		t.Fatal("RunBatch with Obs recorded no generator stage")
	}
}

// TestRunFastZeroAlloc: the single-config fast path shares the pooled arena
// and is also allocation-free in steady state.
func TestRunFastZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in regular builds")
	}
	cfg := batchTestConfigs()[0]
	ctx := context.Background()
	if _, err := RunFastContext(ctx, cfg, Options{Packets: 60, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, err := RunFastContext(ctx, cfg, Options{Packets: 60, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("RunFastContext steady state allocates %v times per call, want 0", got)
	}
}

// TestSimulateDispatch: the unified entry point selects the engine from
// Options.Engine — fast by default, DES on request — and matches the
// explicit entry points exactly.
func TestSimulateDispatch(t *testing.T) {
	cfg := batchTestConfigs()[0]
	opts := Options{Packets: 80, Seed: 5}

	got, err := Simulate(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunFastContext(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Simulate default engine is not the fast path")
	}

	opts.Engine = EngineDES
	got, err = Simulate(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err = RunContext(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Simulate EngineDES is not the event-driven simulator")
	}

	if EngineFast.String() != "fast" || EngineDES.String() != "des" {
		t.Fatal("EngineKind.String mismatch")
	}
}

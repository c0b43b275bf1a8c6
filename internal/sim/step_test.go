package sim

import (
	"context"
	"testing"

	"wsnlink/internal/phy"
	"wsnlink/internal/stack"
)

// dropHeavyConfig overflows its one-slot queue constantly: 10 ms arrivals
// against services of up to eight attempts.
func dropHeavyConfig() stack.Config {
	return stack.Config{
		DistanceM: 35, TxPower: phy.PowerLevel(7), MaxTries: 8, RetryDelay: 0.03,
		QueueCap: 1, PktInterval: 0.010, PayloadBytes: 110,
	}
}

var engines = []EngineKind{EngineFast, EngineDES}

// TestRecordsInPacketOrder: the per-packet log is indexed by packet ID on
// both engines, even when queue drops complete before the packets ahead of
// them. The loss-run and Gilbert-Elliott analyses read it by position.
func TestRecordsInPacketOrder(t *testing.T) {
	for _, e := range engines {
		res, err := Simulate(context.Background(), dropHeavyConfig(),
			Options{Packets: 400, Seed: 3, Engine: e, RecordPackets: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.QueueDrops == 0 {
			t.Fatalf("%v: no queue drops; the config no longer exercises the ordering", e)
		}
		if len(res.Records) != 400 {
			t.Fatalf("%v: %d records, want 400", e, len(res.Records))
		}
		for i, r := range res.Records {
			if r.ID != i {
				t.Fatalf("%v: Records[%d].ID = %d", e, i, r.ID)
			}
		}
	}
}

// TestQueueSemantics pins the send queue above the MAC on both engines:
// Q_max counts waiting packets (the one in service excluded), an arrival is
// dropped exactly when Q_max are already waiting, and the single server
// serves accepted packets first come, first served.
func TestQueueSemantics(t *testing.T) {
	for _, queueCap := range []int{1, 3} {
		cfg := dropHeavyConfig()
		cfg.QueueCap = queueCap
		for _, e := range engines {
			res, err := Simulate(context.Background(), cfg,
				Options{Packets: 400, Seed: 8, Engine: e, RecordPackets: true})
			if err != nil {
				t.Fatal(err)
			}
			if m := res.Counters.MaxQueueOccupancy; m != queueCap {
				t.Errorf("%v cap %d: MaxQueueOccupancy = %d", e, queueCap, m)
			}
			prevEnd := 0.0
			for _, r := range res.Records {
				if r.QueueDrop != (r.QueueLen == queueCap) {
					t.Fatalf("%v cap %d: packet %d dropped=%v with %d waiting",
						e, queueCap, r.ID, r.QueueDrop, r.QueueLen)
				}
				if r.QueueDrop {
					continue
				}
				if r.ServiceStart < prevEnd || r.ServiceStart < r.GenTime {
					t.Fatalf("%v cap %d: packet %d starts at %g, server free at %g",
						e, queueCap, r.ID, r.ServiceStart, prevEnd)
				}
				prevEnd = r.ServiceEnd
			}
		}
	}
}

// TestSaturatedCountsArrivals: a saturated sender's packets are arrivals
// too, on both engines.
func TestSaturatedCountsArrivals(t *testing.T) {
	cfg := dropHeavyConfig()
	cfg.PktInterval = 0
	for _, e := range engines {
		res, err := Simulate(context.Background(), cfg, Options{Packets: 200, Seed: 4, Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		if c := res.Counters; c.ArrivalsSeen != c.Generated {
			t.Errorf("%v: ArrivalsSeen = %d, want Generated = %d", e, c.ArrivalsSeen, c.Generated)
		}
	}
}

// TestRunDESZeroAlloc: the event-driven engine shares the pooled lane of
// the fast path and is allocation-free in steady state.
func TestRunDESZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in regular builds")
	}
	cfg := batchTestConfigs()[0]
	ctx := context.Background()
	if _, err := RunContext(ctx, cfg, Options{Packets: 60, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, err := RunContext(ctx, cfg, Options{Packets: 60, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("RunContext steady state allocates %v times per call, want 0", got)
	}
}

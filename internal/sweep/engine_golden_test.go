package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"wsnlink/internal/phy"
	"wsnlink/internal/scenario"
	"wsnlink/internal/stack"
)

// TestEngineRowsGolden pins simulated output byte for byte. Unlike the
// hand-built rows of TestCSVGolden and TestScenarioCSVGolden, every row
// here comes out of a simulator: the link on both engines, the star with
// one and three nodes, interference on both engines, and mobility, each
// over a handful of configurations chosen to reach the awkward regimes
// (heavy queue drops, a saturated sender, an out-of-range power level
// whose metrics are non-finite). A refactor of any simulator must leave
// this file untouched; a diff here means the numerics moved.
func TestEngineRowsGolden(t *testing.T) {
	type engine struct {
		spec    scenario.Spec
		fullDES bool
	}
	engines := []engine{
		{scenario.LinkSpec(), false},
		{scenario.LinkSpec(), true},
		{scenario.StarSpec(1), false},
		{scenario.StarSpec(3), false},
		{scenario.Spec{Kind: scenario.KindInterference}, false},
		{scenario.Spec{Kind: scenario.KindInterference}, true},
		{scenario.Spec{Kind: scenario.KindMobility}, false},
	}
	cfgs := []stack.Config{
		// Heavy queue drops: one-slot queue, 10 ms arrivals, long retries.
		{DistanceM: 35, TxPower: phy.PowerLevel(7), MaxTries: 8, RetryDelay: 0.03,
			QueueCap: 1, PktInterval: 0.010, PayloadBytes: 110},
		// A healthy link with a roomy queue.
		{DistanceM: 15, TxPower: phy.PowerLevel(31), MaxTries: 3, RetryDelay: 0.03,
			QueueCap: 30, PktInterval: 0.05, PayloadBytes: 110},
		// Out of range at the lowest power: nothing is delivered, so the
		// delay and energy-per-bit fields are non-finite.
		{DistanceM: 60, TxPower: phy.PowerLevel(3), MaxTries: 3, RetryDelay: 0.01,
			QueueCap: 5, PktInterval: 0.05, PayloadBytes: 110},
		// Saturated sender (link only: the star and mobility reject it).
		{DistanceM: 25, TxPower: phy.PowerLevel(15), MaxTries: 5, RetryDelay: 0,
			QueueCap: 30, PktInterval: 0, PayloadBytes: 60},
	}
	var rows []scenario.Row
	for _, e := range engines {
		for ci, cfg := range cfgs {
			if cfg.Saturated() && e.spec.Kind != scenario.KindLink {
				continue
			}
			row, err := scenario.Run(context.Background(), e.spec, cfg, scenario.RunOptions{
				Packets: 300,
				Seed:    uint64(1000 + ci),
				FullDES: e.fullDES,
			})
			if err != nil {
				t.Fatalf("%s (des=%v) cfg %d: %v", e.spec.Kind, e.fullDES, ci, err)
			}
			rows = append(rows, row)
		}
	}
	var buf bytes.Buffer
	if err := WriteScenarioCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "engine_rows.golden.csv")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("simulated rows differ from %s — a simulator's numerics moved\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"wsnlink/internal/metrics"
	"wsnlink/internal/scenario"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
)

// TestScenarioCSVGolden pins the scenario dataset schema byte for byte: the
// header and one fully populated row per scenario kind. Like TestCSVGolden
// the rows are hand-constructed, so the file locks the encoding without
// freezing the simulators' numerics.
func TestScenarioCSVGolden(t *testing.T) {
	kinds := []scenario.Kind{scenario.KindLink, scenario.KindStar,
		scenario.KindInterference, scenario.KindLPL, scenario.KindMobility}
	var rows []scenario.Row
	for i, k := range kinds {
		f := float64(i + 1)
		rows = append(rows, scenario.Row{
			Scenario: k,
			Config: stack.Config{
				DistanceM: 5 * f, TxPower: 31, MaxTries: 3, RetryDelay: 0.03,
				QueueCap: 30, PktInterval: 0.05, PayloadBytes: 110,
			},
			Seed:    12345678901234567890 - uint64(i),
			Packets: 400,
			Report: metrics.Report{
				MeanSNR: 12.25 / f, SDSNR: 2.5, MeanRSSI: -82.75, SDRSSI: 3.125,
				PER: 0.0625 * f, MeanTries: 1.0625,
				EnergyPerBitMicroJ: 0.21875, ListenEnergyMicroJ: 1024.5,
				RadioEnergyPerBitMicroJ: 0.28125, GoodputKbps: 17.5 / f,
				MeanDelay: 0.015625, MeanServiceTime: 0.0078125, MeanQueueDelay: 0.0078125,
				PLR: 0.0025, PLRQueue: 0.001, PLRRadio: 0.0015,
				Utilization: 0.1575,
				Generated:   400, Delivered: 399 - i, QueueDrops: 0, RadioDrops: 1 + i,
			},
			Net: scenario.NetStats{
				Nodes: i + 1, OfferedLoadPPS: 20 * f, AggGoodputKbps: 17.5 * f,
				CollisionRate: 0.125, CCAFailRate: 0.0625,
				DutyCycle: 0.03125, WakeIntervalS: 0.25, LatencyS: 0.125,
				InterfererDuty: 0.2, SNRPenaltyDB: 1.5,
				SpeedMPS: 0.75, MeanDistanceM: 5.5 * f,
			},
		})
	}
	var buf bytes.Buffer
	if err := WriteScenarioCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "scenario_rows.golden.csv")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scenario CSV encoding differs from %s — the dataset schema changed\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}

	// The canonical encoding roundtrips byte-exactly.
	parsed, err := ReadScenarioCSV(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteScenarioCSV(&again, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again.Bytes()) {
		t.Error("re-encoding a parsed scenario dataset is not byte-identical")
	}
}

// TestScenarioRowIdentityColumns pins what the engine stamps on every
// scenario row independently of the simulators' numerics: the kind tag,
// the configuration at its index, the per-index derived seed and the
// packet count.
func TestScenarioRowIdentityColumns(t *testing.T) {
	cfgs := scenarioConfigs()[:3]
	opts := RunOptions{Packets: 20, BaseSeed: 9, Workers: 2}
	for name, spec := range scenarioSpecs() {
		rows, err := RunScenarios(context.Background(), spec, cfgs, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != len(cfgs) {
			t.Fatalf("%s: %d rows, want %d", name, len(rows), len(cfgs))
		}
		for i, r := range rows {
			if r.Scenario != spec.Kind || r.Config != cfgs[i] ||
				r.Seed != sim.DeriveSeed(opts.BaseSeed, i) || r.Packets != opts.Packets {
				t.Errorf("%s row %d: kind %q cfg %v seed %d packets %d", name, i,
					r.Scenario, r.Config, r.Seed, r.Packets)
			}
		}
	}
}

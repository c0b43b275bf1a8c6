package sweep

import (
	"context"
	"testing"
)

// TestOnRowFiresForScenarioCampaigns: RunOptions.OnRow is called for every
// emitted row of every scenario kind, in input order, with the row's link
// columns — the same contract StreamConfigs keeps for link campaigns.
func TestOnRowFiresForScenarioCampaigns(t *testing.T) {
	cfgs := scenarioConfigs()[:4]
	for name, spec := range scenarioSpecs() {
		var seen []Row
		opts := RunOptions{Packets: 20, BaseSeed: 5, Workers: 3,
			OnRow: func(r Row) { seen = append(seen, r) }}
		rows, err := RunScenarios(context.Background(), spec, cfgs, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(seen) != len(rows) {
			t.Fatalf("%s: OnRow fired %d times for %d rows", name, len(seen), len(rows))
		}
		for i, r := range rows {
			want := Row{Config: r.Config, Report: r.Report, Seed: r.Seed, Packets: r.Packets}
			if seen[i] != want {
				t.Errorf("%s: OnRow row %d = %+v, want the link columns %+v", name, i, seen[i], want)
			}
		}
	}
}

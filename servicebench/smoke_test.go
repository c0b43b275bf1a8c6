package main

import (
	"context"
	"testing"
)

// shrunk is the workload with its counts cut to a few campaigns; campaign
// shapes, clients and fleet layout stay as they are.
func shrunk(w *workload) *workload {
	s := *w
	if s.round > 0 {
		s.round = 6
	}
	if s.pool > 0 {
		s.pool = 2
	}
	s.layerSpecs = min(s.layerSpecs, 2)
	return &s
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs daemons and simulations for every workload")
	}
	ctx := context.Background()
	for _, base := range workloads {
		w := shrunk(base)
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			doc, err := runWorkload(ctx, w, 3, 0.05, false, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !doc.Correct || doc.Attempted == 0 {
				t.Fatalf("untraced run: correct=%t attempted=%d failures=%v", doc.Correct, doc.Attempted, doc.Failures)
			}
			for _, d := range endToEndDefs {
				m, ok := doc.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: missing or wrong unit: %+v", d.name, m)
				}
				if m.Value == 0 {
					t.Errorf("%s reads 0", d.name)
				}
			}

			doc, err = runWorkload(ctx, w, 3, 0.05, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !doc.Correct {
				t.Fatalf("traced run failed: %v", doc.Failures)
			}
			for _, d := range perLayerDefs {
				if m, ok := doc.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s: missing or wrong unit: %+v", d.name, m)
				}
			}
			hit := doc.Metrics["serve.store.cache_hit_ratio"].Value
			if want := map[string]float64{"churn": 0, "bulk": 0, "replay": 1, "fabric": 0}[w.name]; hit != want {
				t.Errorf("cache hit ratio %g, want %g", hit, want)
			}
			if w.runners > 0 {
				if s := doc.Metrics["fabric.shards_per_campaign"].Value; s <= 1 {
					t.Errorf("fabric shards per campaign %g, want > 1", s)
				}
			}
		})
	}
}

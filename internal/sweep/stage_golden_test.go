package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"wsnlink/internal/obs"
	"wsnlink/internal/phy"
	"wsnlink/internal/stack"
)

// TestSimStageTelemetryGolden pins the simulator-pipeline stage totals a
// campaign publishes (Count and simulated Seconds of the generator, queue,
// MAC, channel and RX stages) for a fixed 64-configuration CRN campaign.
// The totals are integer nanosecond sums, so they must not depend on the
// worker count, on how the kernel batches its telemetry, or on scheduling:
// every worker count renders the same bytes as the golden file.
func TestSimStageTelemetryGolden(t *testing.T) {
	space := stack.Space{
		DistancesM:    []float64{15, 35},
		TxPowers:      []phy.PowerLevel{7, 31},
		MaxTries:      []int{1, 8},
		RetryDelays:   []float64{0.03},
		QueueCaps:     []int{1, 30},
		PktIntervals:  []float64{0.01, 0.05},
		PayloadsBytes: []int{20, 110},
	}
	cfgs := space.All()
	if len(cfgs) != 64 {
		t.Fatalf("space has %d configurations, want 64", len(cfgs))
	}
	path := filepath.Join("testdata", "sim_stages.golden.txt")
	for _, workers := range []int{1, 2, 4} {
		m := obs.New()
		opts := RunOptions{Packets: 250, BaseSeed: 11, CRN: true,
			Workers: workers, BatchSize: 8, Metrics: m}
		if err := StreamConfigs(context.Background(), cfgs, opts, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		for _, st := range m.Snapshot().Stages {
			if st.Clock != "sim" {
				continue
			}
			fmt.Fprintf(&buf, "%s count=%d seconds=%s\n",
				st.Name, st.Count, strconv.FormatFloat(st.Seconds, 'g', -1, 64))
		}
		got := buf.Bytes()
		if *update && workers == 1 {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: sim-stage telemetry differs from %s:\n got:\n%s\nwant:\n%s",
				workers, path, got, want)
		}
	}
}

package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRankOrderStatistic(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // 1000..1: percentile must sort a copy
	}
	for _, c := range []struct {
		pct  int
		want float64
	}{{50, 500}, {99, 990}, {100, 1000}, {1, 10}} {
		if got := percentile(v, c.pct); got != c.want {
			t.Errorf("p%d of 1..1000 = %g, want %g", c.pct, got, c.want)
		}
	}
	if v[0] != 1000 {
		t.Fatal("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("p50 of 1..4 = %g, want the 2nd smallest", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, pct, beyond int
		ok             bool
	}{
		{999, 99, 9, false},
		{1000, 99, 10, true},
		{1600, 99, 16, true},
		{100, 99, 1, false},
		{20, 50, 10, true},
		{19, 50, 9, false},
		{0, 99, 0, false},
	} {
		if got := beyond(c.n, c.pct); c.n > 0 && got != c.beyond {
			t.Errorf("beyond(%d, p%d) = %d, want %d", c.n, c.pct, got, c.beyond)
		}
		if got := tailReportable(c.n, c.pct); got != c.ok {
			t.Errorf("tailReportable(%d, p%d) = %t, want %t", c.n, c.pct, got, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

// timeline returns n campaign latencies in start order: from at the start
// to to at the end, changing linearly.
func timeline(n int, from, to float64) []float64 {
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = from + (to-from)*float64(i)/float64(n-1)
	}
	return lat
}

func TestRetentionOnSyntheticTimelines(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

	if got := retention([][]float64{timeline(400, 4, 4), timeline(400, 4, 4)}); !near(got, 1) {
		t.Errorf("constant rate: retention %g, want 1", got)
	}
	// Latency doubles over a round: the rate at the end is half.
	// 10 campaigns: fifths are latencies {2, 2.222} and {3.778, 4}.
	if got := retention([][]float64{timeline(10, 2, 4)}); !near(got, (2+2+2.0/9)/2/((4+4-2.0/9)/2)) {
		t.Errorf("slowing round: retention %g", got)
	}
	// Rounds pool: two rounds that each slow from 2 to 4 ms read as one.
	if got, want := retention([][]float64{timeline(10, 2, 4), timeline(10, 2, 4)}), retention([][]float64{timeline(10, 2, 4)}); !near(got, want) {
		t.Errorf("pooled rounds: retention %g, want %g", got, want)
	}
	// One stalled campaign in the first fifth does not swing the median.
	stalled := timeline(100, 3, 3)
	stalled[2] = 300
	if got := retention([][]float64{stalled}); !near(got, 1) {
		t.Errorf("one stall: retention %g, want 1", got)
	}
	// Rounds of fewer than five campaigns still contribute one each.
	if got := retention([][]float64{{600, 700, 650, 660}, {610, 640, 700, 620}}); !near(got, (605.0)/(640)) {
		t.Errorf("short rounds: retention %g, want %g", got, 605.0/640)
	}
	if got := retention(nil); !math.IsNaN(got) {
		t.Errorf("no campaigns: retention %g, want NaN", got)
	}
}

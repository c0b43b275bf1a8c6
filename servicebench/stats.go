package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples.
const tailMinBeyond = 10

// rank is the 1-based nearest-rank position of the pct-th percentile among
// n samples: the ceil(pct/100 * n)-th smallest, computed in integers so
// p99 of 1000 samples is exactly the 990th.
func rank(n, pct int) int {
	r := (pct*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank pct-th percentile of the samples (an
// exact order statistic, no interpolation). It sorts a copy; NaN when
// there are no samples.
func percentile(samples []float64, pct int) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), pct)-1]
}

// beyond is how many of n samples lie above the pct-th percentile's rank.
func beyond(n, pct int) int { return n - rank(n, pct) }

// tailReportable applies the reporting rule: a percentile is reported only
// when at least tailMinBeyond samples lie beyond it.
func tailReportable(n, pct int) bool { return n > 0 && beyond(n, pct) >= tailMinBeyond }

// median of the values (the mean of the middle two for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// retention is the campaign rate at the end of the rounds divided by the
// rate at their start. Each round contributes its first and its last fifth
// of campaigns in start order (at least one each), pooled over rounds.
// With a fixed number of closed-loop clients the campaign rate is the
// client count over the campaign latency (Little's law), so the ratio is
// the median latency of the first fifths over that of the last fifths; the
// median keeps one stall of the host from swinging it. Each round lists its
// verified campaigns' latencies in start order. NaN without campaigns.
func retention(rounds [][]float64) float64 {
	var head, tail []float64
	for _, lat := range rounds {
		if len(lat) == 0 {
			continue
		}
		fifth := (len(lat) + 4) / 5
		head = append(head, lat[:fifth]...)
		tail = append(tail, lat[len(lat)-fifth:]...)
	}
	return median(head) / median(tail)
}

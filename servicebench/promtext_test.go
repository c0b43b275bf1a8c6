package main

import (
	"os"
	"strings"
	"testing"
)

// testdata/metrics.txt is a /metrics page captured from a coordinator over
// one runner after two submissions of the same 4-config campaign (one
// simulated, one answered from the cache) and one list request.
func TestParsePromTextOnCapturedSample(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := parsePromText(f)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"wsnlinkd_jobs_submitted_total":  2,
		"wsnlinkd_cache_hits_total":      1,
		"wsnlinkd_cache_misses_total":    1,
		"wsnlinkd_http_requests_total":   7, // summed over route, method and code
		"fabric_shards_planned_total":    2,
		"fabric_runner_up":               1,
		"wsnlinkd_job_run_seconds_count": 1,
		"wsnlinkd_job_run_seconds_sum":   0.005,
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if _, ok := m["wsnlinkd_http_request_seconds_bucket"]; !ok {
		t.Error("histogram buckets missing")
	}
}

func TestParsePromTextLabelsAndErrors(t *testing.T) {
	m, err := parsePromText(strings.NewReader(`# HELP x y
a{route="/v1/{id}",msg="say \"hi\" }"} 2
a{route="other"} 3 1700000000000
b +Inf
c 1e3
`))
	if err != nil {
		t.Fatal(err)
	}
	if m["a"] != 5 || m["c"] != 1000 || m["b"] <= 1e308 {
		t.Errorf("parsed %v", m)
	}
	for _, bad := range []string{`a{route="x" 1`, `a`, `a{} nope`, `{x="y"} 1`} {
		if _, err := parsePromText(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestDelta(t *testing.T) {
	d := delta(map[string]float64{"a": 1, "gone": 4}, map[string]float64{"a": 3, "new": 2})
	if d["a"] != 2 || d["new"] != 2 {
		t.Errorf("delta %v", d)
	}
}

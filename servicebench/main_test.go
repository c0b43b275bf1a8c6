package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFlagsDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	doc := func(cpu string, rows float64) []*resultDoc {
		return []*resultDoc{{
			Schema: schema, Workload: "bulk",
			Host:    host{CPU: cpu, NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "abc"},
			Metrics: map[string]metric{"rows_per_s": {rows, "1/s"}},
		}}
	}
	// A saved standard output: the result documents, then the summary.
	write := func(name string, d []*resultDoc) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, doc := range d {
			enc.Encode(doc)
		}
		enc.Encode(summary(d))
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.out", doc("Xeon A", 100))
	b := write("b.out", doc("Xeon A", 110))
	c := write("c.out", doc("Epyc B", 120))

	var out bytes.Buffer
	if code, err := compare([]string{a, b}, &out); code != 0 || err != nil {
		t.Fatalf("same host: code %d, %v", code, err)
	}
	if !strings.Contains(out.String(), "x1.100") || strings.Contains(out.String(), "CROSS-HOST") {
		t.Errorf("same-host comparison printed %q", out.String())
	}

	out.Reset()
	if code, err := compare([]string{a, c}, &out); code != 0 || err != nil {
		t.Fatalf("cross-host: code %d, %v", code, err)
	}
	if !strings.Contains(out.String(), "WARNING host fingerprints differ") || !strings.Contains(out.String(), "x1.200 CROSS-HOST") {
		t.Errorf("cross-host comparison not marked: %q", out.String())
	}
}

package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"wsnlink/internal/serve"
	"wsnlink/internal/sweep"
)

// smallWorkload is a churn-shaped workload whose campaigns the gate can
// recompute quickly.
func smallWorkload() *workload {
	w := *workloads[0]
	return &w
}

// streamed returns a campaign's rows as a client would decode them.
func streamed(t *testing.T, spec serve.CampaignSpec) []sweep.Row {
	t.Helper()
	rows, err := sweep.RunConfigs(context.Background(), spec.Space.Space().All(), sweep.RunOptions{
		Packets: spec.Packets, BaseSeed: spec.BaseSeed, CRN: spec.CRN,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestGateCatchesOneCorruptRow(t *testing.T) {
	w := smallWorkload()
	spec := w.spec(w.campaignSeed(1, 0, 0))
	ref, err := localReference(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := streamed(t, spec)
	if err := compareRows(rows, ref); err != nil {
		t.Fatalf("intact campaign rejected: %v", err)
	}
	rows[2].Report.PER += 1e-12 // one field, one row, one ulp-scale change
	err = compareRows(rows, ref)
	if err == nil || !strings.Contains(err.Error(), "row 2 ") {
		t.Fatalf("corrupt row 2 not caught by name: %v", err)
	}
	if err := compareRows(rows[:3], ref); err == nil {
		t.Fatal("a short campaign passed the byte gate")
	}
}

func TestRowCheckerNeedsDenseIndices(t *testing.T) {
	c := rowChecker{want: 3}
	for _, i := range []int{0, 1} {
		if err := c.check(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.done(); err == nil {
		t.Error("2 of 3 rows accepted as complete")
	}
	if err := c.check(3); err == nil {
		t.Error("gap from 1 to 3 accepted")
	}
	c = rowChecker{want: 2}
	if err := c.check(0); err != nil {
		t.Fatal(err)
	}
	if err := c.check(0); err == nil {
		t.Error("repeated index accepted")
	}
}

// TestCorruptSampleFailsThePass shows a mismatch reaching the result: the
// campaign is failed, counted, and the run is not correct.
func TestCorruptSampleFailsThePass(t *testing.T) {
	w := smallWorkload()
	p := newPass(w, 1, nil, t.TempDir())
	good := &record{seed: w.campaignSeed(1, 0, 0), rows: 4}
	good.kept = streamed(t, w.spec(good.seed))
	bad := &record{client: 1, seed: w.campaignSeed(1, 1, 0), rows: 4}
	bad.kept = streamed(t, w.spec(bad.seed))
	bad.kept[1].Report.GoodputKbps *= 2
	r := &round{records: []*record{good, bad}}
	p.rounds = []*round{r}
	if err := p.verify(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if good.err != nil {
		t.Errorf("intact sample failed: %v", good.err)
	}
	if bad.err == nil || !strings.Contains(bad.err.Error(), "row 1 ") {
		t.Fatalf("corrupt sample not failed at row 1: %v", bad.err)
	}
	if n, f := p.tally(); n != 2 || f != 1 {
		t.Fatalf("tally = %d attempted, %d failed; want 2, 1", n, f)
	}
	doc := &resultDoc{Failed: 1}
	if res := summary([]*resultDoc{doc}); res.Correct {
		t.Fatal("a run with a failed campaign reported correct")
	}
}

func TestFailedShareCountsEveryKindOfFailureOnce(t *testing.T) {
	w := smallWorkload()
	p := newPass(w, 1, nil, t.TempDir())
	recs := []*record{
		{rows: 4, first: 1e6, last: 2e6, end: 2e6},                           // verified
		{rows: 4, first: 3e6, last: 4e6, end: 4e6},                           // verified
		{err: &serve.APIError{StatusCode: 429}, end: 5e6},                    // refused
		{err: errors.New("submit: connection reset"), end: 5e6},              // submit error
		{rows: 2, first: 6e6, last: 7e6, end: 7e6, err: errors.New("short")}, // rows missing
		{rows: 4, first: 8e6, last: 9e6, end: 9e6, err: errors.New("bytes")}, // byte mismatch
	}
	p.rounds = []*round{{start: 0, end: 1e7, records: recs}}
	p.loadTime = 1e7
	p.setups = []float64{0.001}
	if n, f := p.tally(); n != 6 || f != 4 {
		t.Fatalf("tally = %d attempted, %d failed; want 6, 4", n, f)
	}
	gated, _, _ := p.endToEnd()
	if got := gated["verified_share"]; got != 2.0/6 {
		t.Errorf("verified_share = %g, want 1/3", got)
	}
	// Only verified campaigns and their rows count toward throughput.
	if got := gated["rows_per_s"]; got != 8/0.01 {
		t.Errorf("rows_per_s = %g, want %g", got, 8/0.01)
	}
	if got := gated["campaigns_per_s"]; got != 2/0.01 {
		t.Errorf("campaigns_per_s = %g, want %g", got, 2/0.01)
	}
}

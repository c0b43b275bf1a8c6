package sweep_test

import (
	"testing"

	"wsnlink/internal/adaptive"
	"wsnlink/internal/obs"
	"wsnlink/internal/phy"
	"wsnlink/internal/scenario"
	"wsnlink/internal/serve"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

// goldenSpace is the small space every pinned fingerprint hashes.
func goldenSpace() stack.Space {
	sp := stack.DefaultSpace()
	sp.DistancesM = []float64{15, 35}
	sp.TxPowers = []phy.PowerLevel{7, 31}
	sp.MaxTries = []int{1, 3}
	sp.PayloadsBytes = []int{20, 110}
	return sp
}

// TestFingerprintGolden pins absolute campaign fingerprints. They are the
// cache keys of the daemon's result store and the identities checkpoint
// sidecars and run manifests record, so a refactor that changed any of
// them would silently orphan every cached dataset and refuse every resume.
// The sensitivity tests only prove fingerprints differ from each other;
// this table proves they did not move.
func TestFingerprintGolden(t *testing.T) {
	sp := goldenSpace()
	cfgs := sp.All()
	base := sweep.RunOptions{Packets: 100, BaseSeed: 7}
	with := func(f func(*sweep.RunOptions)) sweep.RunOptions {
		o := base
		f(&o)
		return o
	}
	scn := func(spec scenario.Spec) uint64 {
		t.Helper()
		fp, err := sweep.ScenarioFingerprint(spec, cfgs, base)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	spec := func(c serve.CampaignSpec) uint64 {
		t.Helper()
		c.Space = serve.SpaceSpecFor(sp)
		c.Packets, c.BaseSeed = base.Packets, base.BaseSeed
		fp, err := c.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}

	cases := []struct {
		name string
		got  uint64
		want string
	}{
		{"link", sweep.CampaignFingerprint(cfgs, base), "7ee9ebdbf2eed1c8"},
		{"link-crn", sweep.CampaignFingerprint(cfgs, with(func(o *sweep.RunOptions) { o.CRN = true })), "7479109d2bca828b"},
		{"link-des", sweep.CampaignFingerprint(cfgs, with(func(o *sweep.RunOptions) { o.Engine = sim.EngineDES })), "9de4b2e4fdde1be9"},
		{"link-shard", sweep.CampaignFingerprint(cfgs[5:], with(func(o *sweep.RunOptions) { o.IndexOffset = 5 })), "8df09c09b0ff87ca"},
		{"scenario-link", scn(scenario.LinkSpec()), "4e05623ee0484d04"},
		{"scenario-star", scn(scenario.StarSpec(3)), "ff40724811ed2c57"},
		{"scenario-interference", scn(scenario.Spec{Kind: scenario.KindInterference}), "6b2dc915aca11e9f"},
		{"scenario-lpl", scn(scenario.Spec{Kind: scenario.KindLPL}), "0e85aba254575824"},
		{"scenario-mobility", scn(scenario.Spec{Kind: scenario.KindMobility}), "c62f0e6ae19c21bd"},
		{"serve-link", spec(serve.CampaignSpec{}), "7ee9ebdbf2eed1c8"},
		{"serve-star", spec(serve.CampaignSpec{Scenario: "star"}), "25b1ef5ae59fe642"},
		{"serve-adaptive", spec(serve.CampaignSpec{Mode: serve.ModeAdaptive,
			Adaptive: &adaptive.Params{Budget: 8}}), "a550af1c601f0f78"},
	}
	for _, c := range cases {
		if got := obs.FormatFingerprint(c.got); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}

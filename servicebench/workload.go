package main

import (
	"fmt"

	"wsnlink/internal/serve"
)

// workload is one traffic mix against the campaign service. Every load is a
// closed loop: each client submits a campaign, streams all its rows, and
// only then submits the next, the way wsnsweep -remote and scripts do.
type workload struct {
	name    string
	why     string
	clients int
	// runners > 0 puts a coordinator in front of that many runner daemons.
	runners int
	// spec builds the campaign a client submits under a campaign seed.
	spec func(seed uint64) serve.CampaignSpec
	// pool > 0 replays a hot pool of that many campaigns, computed during
	// set-up, instead of submitting fresh seeds.
	pool int
	// round is how many campaigns the clients run between them on each
	// fresh fleet: the load comes in rounds of a fixed campaign count, not
	// a fixed duration, so the history a daemon accumulates (and the disk
	// it fills) is the same however fast it is.
	round int
	// samples is how many campaigns of each round (chosen from the seed)
	// are compared byte for byte against a reference. A fixed count per
	// round keeps the rows held for the comparison, and so the memory
	// measured, the same in every round.
	samples int
	// layerSpecs is how many of the workload's campaigns the traced run
	// replays down the stack layer by layer.
	layerSpecs int
}

// linkSpec is a link campaign over the given space.
func linkSpec(space serve.SpaceSpec, packets int, crn bool) func(uint64) serve.CampaignSpec {
	return func(seed uint64) serve.CampaignSpec {
		return serve.CampaignSpec{Space: space, Packets: packets, BaseSeed: seed, CRN: crn}
	}
}

// workloads are the benchmark's traffic mixes. BENCHMARK.json gates bulk
// and replay only: most of churn's and fabric's time is fixed per-campaign
// and per-shard file work, whose kernel cost on a shared file system swings
// too far between runs to hold a bound. Both run by name and in "all".
var workloads = []*workload{
	{
		name:    "churn",
		why:     "many 4-config campaigns on fresh daemons: fixed per-campaign cost (admit, persist, schedule, promote, HTTP) dominates",
		clients: 2,
		// wsnload's campaign shape: 4 configurations at 120 packets.
		spec: linkSpec(serve.SpaceSpec{
			DistancesM:    []float64{35},
			TxPowers:      []int{31},
			MaxTries:      []int{1, 3},
			RetryDelaysS:  []float64{0.03},
			QueueCaps:     []int{1},
			PktIntervalsS: []float64{0.05},
			PayloadsBytes: []int{20, 110},
		}, 120, false),
		round:      400,
		samples:    4,
		layerSpecs: 100,
	},
	{
		name:    "bulk",
		why:     "7680-config sweeps: kernel, sweep engine, spool codec, checkpoint, NDJSON and client share the time",
		clients: 1,
		// 35 m with every other Table I axis, at the CRN operating point of
		// BenchmarkRunBatch. Power 3 is out of range at 35 m, so rows with
		// non-finite fields travel the NDJSON path.
		spec:       linkSpec(serve.SpaceSpec{DistancesM: []float64{35}}, 250, true),
		round:      4,
		samples:    1,
		layerSpecs: 1,
	},
	{
		name:    "replay",
		why:     "cache hits only: the store's read side and the row layers, with no simulation and no spool writes",
		clients: 2,
		// 960 configurations at 35 m, out-of-range powers included.
		spec: linkSpec(serve.SpaceSpec{
			DistancesM:    []float64{35},
			PayloadsBytes: []int{110},
		}, 120, true),
		pool:       4,
		round:      100,
		samples:    2,
		layerSpecs: 4,
	},
	{
		name:    "fabric",
		why:     "a coordinator sharding 64-config campaigns over 3 runners: per-shard plan, dispatch, runner job and merge cost",
		clients: 2,
		runners: 3,
		spec: linkSpec(serve.SpaceSpec{
			DistancesM:    []float64{35},
			TxPowers:      []int{3, 31},
			MaxTries:      []int{1, 3, 5, 8},
			RetryDelaysS:  []float64{0.03},
			QueueCaps:     []int{1, 30},
			PktIntervalsS: []float64{0.03, 0.1},
			PayloadsBytes: []int{20, 110},
		}, 120, false),
		round:      80,
		samples:    2,
		layerSpecs: 24,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// configs is the number of rows a campaign of the workload streams.
func (w *workload) configs() int {
	return w.spec(0).Space.Space().Size()
}

// mix is SplitMix64 folded over the words: a well-spread hash of a tuple.
func mix(words ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc908)
	for _, v := range words {
		z := (h ^ v) + 0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		h = z ^ z>>31
	}
	return h
}

// nameWord folds a workload name into one word for mix.
func nameWord(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// Hash domains, so a campaign seed never doubles as a sampling draw.
const (
	domainCampaign = iota + 1
	domainSample
	domainPool
)

// campaignSeed is the base seed of a client's seq-th campaign: a hash of
// (workload seed, workload, client, seq), so campaigns are unique across
// clients, sequence numbers, workloads and workload seeds alike.
func (w *workload) campaignSeed(seed uint64, client, seq int) uint64 {
	return mix(domainCampaign, seed, nameWord(w.name), uint64(client), uint64(seq))
}

// poolSeed is the base seed of the i-th hot-pool campaign.
func (w *workload) poolSeed(seed uint64, i int) uint64 {
	return mix(domainPool, seed, nameWord(w.name), uint64(i))
}

// poolPick is which hot-pool campaign a client resubmits at seq.
func (w *workload) poolPick(seed uint64, client, seq int) int {
	return int(mix(domainPool, seed, uint64(client), uint64(seq)) % uint64(w.pool))
}

// samplePicks chooses which of client 0's campaigns in the given round are
// compared byte for byte: w.samples distinct positions among its first
// round/(2·clients) campaigns, which client 0 reaches in any round.
func (w *workload) samplePicks(seed uint64, round int) map[int]bool {
	window := max(1, w.round/(2*w.clients))
	picks := map[int]bool{}
	for i := 0; len(picks) < min(w.samples, window); i++ {
		picks[int(mix(domainSample, seed, nameWord(w.name), uint64(round), uint64(i))%uint64(window))] = true
	}
	return picks
}

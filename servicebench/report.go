package main

import (
	"math"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics a user of the service sees, reported by
// every workload with tracing off. failed_share appears as its complement,
// verified_share, so that no gated metric is ever 0.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaigns_per_s", "1/s", "higher"},
	{"rows_per_s", "1/s", "higher"},
	{"campaign_p50_ms", "ms", "lower"},
	{"first_row_p50_ms", "ms", "lower"},
	{"verified_share", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"disk_mb", "MB", "lower"},
}

// reportedDefs are end-to-end metrics the result document carries outside
// the gated set. A workload reports a p99 only when its run puts at least
// tailMinBeyond samples beyond it, so the p99s cannot be in a set every
// workload reports. Throughput retention swings too far between sets of
// runs on a noisy host (churn's median read 0.28, 0.46 and 0.73 in three
// sets of ten) to hold any bound.
var reportedDefs = []metricDef{
	{"campaign_p99_ms", "ms", "lower"},
	{"first_row_p99_ms", "ms", "lower"},
	{"submit_p99_ms", "ms", "lower"},
	{"throughput_retention", "ratio", "higher"},
}

// perLayerDefs are the traced run's metrics, layer by layer.
var perLayerDefs = []metricDef{
	{"sim.ns_per_config", "ns", "lower"},
	{"sim.allocs_per_config", "count", "lower"},
	{"sweep.engine.ns_per_config", "ns", "lower"},
	{"sweep.engine.first_row_ms", "ms", "lower"},
	{"sweep.engine.dispatch_share", "ratio", "lower"},
	{"sweep.engine.simulate_share", "ratio", "higher"},
	{"sweep.engine.reorder_share", "ratio", "lower"},
	{"sweep.engine.yield_share", "ratio", "lower"},
	{"sweep.engine.checkpoint_share", "ratio", "lower"},
	{"sweep.codec.encode_ns_per_row", "ns", "lower"},
	{"sweep.codec.checkpoint_ns_per_row", "ns", "lower"},
	{"sweep.codec.bytes_per_row", "bytes", "lower"},
	{"serve.jobs.submit_p50_ms", "ms", "lower"},
	{"serve.jobs.submit_p99_ms", "ms", "lower"},
	{"serve.jobs.queue_wait_p50_ms", "ms", "lower"},
	{"serve.jobs.run_p50_ms", "ms", "lower"},
	{"serve.jobs.overhead_ms_per_campaign", "ms", "lower"},
	{"serve.jobs.retained", "count", "lower"},
	{"serve.store.cache_hit_ratio", "ratio", "higher"},
	{"serve.store.cache_entries", "count", "lower"},
	{"serve.store.job_records", "count", "lower"},
	{"serve.store.stream_ns_per_row", "ns", "lower"},
	{"serve.http.submit_overhead_ms", "ms", "lower"},
	{"serve.http.requests_per_campaign", "count", "lower"},
	{"serve.http.ns_per_row", "ns", "lower"},
	{"serve.http.bytes_per_row", "bytes", "lower"},
	{"serve.client.ns_per_row", "ns", "lower"},
	{"fabric.shards_per_campaign", "count", "lower"},
	{"fabric.runner_jobs_per_campaign", "count", "lower"},
	{"fabric.overhead_ms_per_campaign", "ms", "lower"},
	{"fabric.requeues", "count", "lower"},
	{"go.alloc_bytes_per_row", "bytes", "lower"},
	{"go.gc_cycles_per_s", "1/s", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// tally counts a pass's campaigns: every campaign attempted, and those
// that failed in any way (submit refused or errored, stream broken, rows
// missing or out of order, bytes different from the reference).
func (p *pass) tally() (attempted, failed int) {
	for _, r := range p.rounds {
		for _, rec := range r.records {
			attempted++
			if rec.err != nil {
				failed++
			}
		}
	}
	return attempted, failed
}

// rowRate is the pass's verified rows per second of load time.
func (p *pass) rowRate() float64 {
	var rows int
	for _, r := range p.rounds {
		for _, rec := range r.records {
			if rec.err == nil {
				rows += rec.rows
			}
		}
	}
	return float64(rows) / p.loadTime.Seconds()
}

// endToEnd computes the untraced metrics of a pass: gated ones, and the
// ones only the result document reports. Rates pool all rounds' load time;
// peak memory and disk are the median over rounds; latencies pool the
// campaigns of every round. samples counts what the figures rest on.
func (p *pass) endToEnd() (gated, reported map[string]float64, samples map[string]int) {
	var rss, disk []float64
	var campaign, first, submit []float64
	var cycles [][]float64
	ok := 0
	for _, r := range p.rounds {
		recs := append([]*record(nil), r.records...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].start < recs[j].start })
		var lat []float64
		for _, rec := range recs {
			if rec.err != nil {
				continue
			}
			ok++
			lat = append(lat, ms(rec.last-rec.start))
			first = append(first, ms(rec.first-rec.start))
			submit = append(submit, ms(rec.submitted-rec.start))
		}
		campaign = append(campaign, lat...)
		cycles = append(cycles, lat)
		rss = append(rss, float64(r.peakRSS)/1e6)
		disk = append(disk, float64(r.disk)/1e6)
	}
	attempted, failed := p.tally()
	gated = map[string]float64{
		"setup_s":          median(p.setups),
		"campaigns_per_s":  float64(ok) / p.loadTime.Seconds(),
		"rows_per_s":       p.rowRate(),
		"campaign_p50_ms":  percentile(campaign, 50),
		"first_row_p50_ms": percentile(first, 50),
		"verified_share":   float64(attempted-failed) / float64(attempted),
		"peak_rss_mb":      median(rss),
		"disk_mb":          median(disk),
	}
	reported = map[string]float64{"throughput_retention": retention(cycles)}
	for name, v := range map[string][]float64{
		"campaign_p99_ms": campaign, "first_row_p99_ms": first, "submit_p99_ms": submit,
	} {
		if tailReportable(len(v), 99) {
			reported[name] = percentile(v, 99)
		}
	}
	samples = map[string]int{"campaigns": len(campaign), "rounds": len(p.rounds), "setups": len(p.setups)}
	return gated, reported, samples
}

// perLayer computes the traced run's metrics from the untraced pass a, the
// traced pass b, the layer pass l and the spans in tr.
func perLayer(w *workload, a, b *pass, l *layerResult, tr *tracer) map[string]float64 {
	ns := func(name string) float64 { return float64(tr.total(name).Nanoseconds()) }
	msOf := func(name string) []float64 {
		var out []float64
		for _, d := range tr.durations(name) {
			out = append(out, ms(d))
		}
		return out
	}
	c, k := float64(l.configs), float64(l.specs)
	out := map[string]float64{}

	t1, t2, t3 := ns("L1 sim.RunBatch"), ns("L2 sweep.StreamConfigs"), ns("L3 sweep.StreamConfigs+Encoder+checkpoint")
	t4, t5, t6 := ns("L4 campaign"), ns("L5 campaign"), ns("L6 campaign")
	out["sim.ns_per_config"] = t1 / c
	out["sim.allocs_per_config"] = float64(l.simMallocs) / c
	out["sweep.engine.ns_per_config"] = (t2 - t1) / c
	out["sweep.engine.first_row_ms"] = median(l.firstRowMs)
	wall := l.codec.StageSeconds("wall")
	for _, st := range []string{"dispatch", "simulate", "reorder", "yield", "checkpoint"} {
		out["sweep.engine."+st+"_share"] = l.codec.Stage(st).Seconds / wall
	}
	out["sweep.codec.encode_ns_per_row"] = (l.codec.Stage("yield").Seconds - l.engine.Stage("yield").Seconds) * 1e9 / c
	out["sweep.codec.checkpoint_ns_per_row"] = l.codec.Stage("checkpoint").Seconds * 1e9 / c
	out["sweep.codec.bytes_per_row"] = float64(l.spoolBytes) / c

	submits := msOf("L4 serve.Server.Submit")
	out["serve.jobs.submit_p50_ms"] = percentile(submits, 50)
	out["serve.jobs.submit_p99_ms"] = percentile(submits, 99)
	out["serve.jobs.queue_wait_p50_ms"] = median(l.queueWaitMs)
	out["serve.jobs.run_p50_ms"] = median(l.runMs)
	out["serve.jobs.overhead_ms_per_campaign"] = (t4 - t3) / 1e6 / k
	out["serve.jobs.retained"] = float64(b.retained)

	attempted, _ := b.tally()
	out["serve.store.cache_hit_ratio"] = b.metrics["wsnlinkd_cache_hits_total"] / b.metrics["wsnlinkd_jobs_submitted_total"]
	out["serve.store.cache_entries"] = float64(b.files["cache"])
	out["serve.store.job_records"] = float64(b.files["jobs"])
	stream := ns("L4 serve.Server.StreamRows cached") / c
	out["serve.store.stream_ns_per_row"] = stream

	raw := ns("L5 GET rows cached") / c
	out["serve.http.submit_overhead_ms"] = median(msOf("L5 serve.Client.Submit")) - median(submits)
	out["serve.http.requests_per_campaign"] = b.metrics["wsnlinkd_http_requests_total"] / float64(attempted)
	out["serve.http.ns_per_row"] = raw - stream
	out["serve.http.bytes_per_row"] = float64(l.httpBytes) / c
	out["serve.client.ns_per_row"] = ns("L5 serve.Client.StreamRows cached")/c - raw

	// The fabric workload's own coordinator answers for the fabric counts;
	// other workloads take them from the L6 replay of their campaigns.
	fab, campaigns := l.fabric, k
	if w.runners > 0 {
		fab, campaigns = b.metrics, float64(attempted)
	}
	out["fabric.shards_per_campaign"] = fab["fabric_shards_planned_total"] / campaigns
	out["fabric.runner_jobs_per_campaign"] = fab["runner:wsnlinkd_jobs_submitted_total"] / campaigns
	out["fabric.overhead_ms_per_campaign"] = (t6 - t5) / 1e6 / k
	out["fabric.requeues"] = fab["fabric_shard_requeues_total"]

	var rows int
	for _, r := range b.rounds {
		for _, rec := range r.records {
			rows += rec.rows
		}
	}
	out["go.alloc_bytes_per_row"] = float64(b.allocBytes) / float64(rows)
	out["go.gc_cycles_per_s"] = float64(b.gcCycles) / b.loadTime.Seconds()
	out["trace.overhead_share"] = 1 - b.rowRate()/a.rowRate()
	return out
}

// finite reports the first metric that is not a finite number.
func finite(m map[string]float64) (string, bool) {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return k, false
		}
	}
	return "", true
}
